package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// referenceSeed is the only seed with committed reference output.
const referenceSeed = 1

// reference pins a workload's simulated output at referenceSeed: the output
// digest decides, and the per-point headline values locate a drift.
type reference struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Digest   string     `json:"output_digest"`
	Notes    []string   `json:"notes,omitempty"`
	Points   []refPoint `json:"points"`
}

type refPoint struct {
	ID     string             `json:"id"`
	Values map[string]float64 `json:"values"`
}

func referencePath(root, name string) string {
	return filepath.Join(root, "bench", "testdata", name+".json")
}

// newReference condenses an output into its reference form.
func newReference(w workload, seed int64, o output, digest string) reference {
	ref := reference{Workload: w.Name, Seed: seed, Digest: digest}
	for _, f := range o.Figures {
		for _, n := range f.Notes {
			ref.Notes = append(ref.Notes, "fig"+f.ID+": "+n)
		}
		for _, p := range f.Closed {
			r := p.Result
			ref.Points = append(ref.Points, refPoint{
				ID: jobID(w, f.ID, p.Strategy, float64(p.MPL)),
				Values: map[string]float64{
					"qps": r.ThroughputQPS, "resp_ms": r.MeanResponseMS, "p95_ms": r.P95ResponseMS,
					"procs_per_query": r.MeanProcsUsed, "disk_util": r.DiskUtilization,
					"cpu_util": r.CPUUtilization, "buf_hit": r.BufferHitRate,
					"reads_per_query": r.DiskReadsPerQry, "disk_skew": r.DiskSkew,
				},
			})
		}
		for _, p := range f.Open {
			s := p.Result.Serve
			ref.Points = append(ref.Points, refPoint{
				ID: jobID(w, f.ID, p.Strategy, p.Lambda),
				Values: map[string]float64{
					"goodput_qps": s.GoodputQPS(), "done_qps": s.CompletedQPS(),
					"p50_ms": s.SLO.Latency.P50, "p99_ms": s.SLO.Latency.P99,
					"arrivals": float64(s.SLO.Arrivals), "completed": float64(s.SLO.Completed),
					"shed_queue_full": float64(s.SLO.ShedQueueFull), "shed_aged": float64(s.SLO.ShedAged),
					"shed_shutdown": float64(s.SLO.ShedShutdown),
				},
			})
		}
	}
	return ref
}

func writeReference(path string, ref reference) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReference(path string) (reference, error) {
	var ref reference
	b, err := os.ReadFile(path)
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// diffReference lists every note and point value of got that differs from
// want, plus a digest mismatch; none means the outputs are identical.
func diffReference(want, got reference) []string {
	var bad []string
	if strings.Join(want.Notes, "\n") != strings.Join(got.Notes, "\n") {
		bad = append(bad, fmt.Sprintf("notes %q, want %q", got.Notes, want.Notes))
	}
	wantPts := map[string]map[string]float64{}
	for _, p := range want.Points {
		wantPts[p.ID] = p.Values
	}
	if len(want.Points) != len(got.Points) {
		bad = append(bad, fmt.Sprintf("%d points, want %d", len(got.Points), len(want.Points)))
	}
	for _, p := range got.Points {
		w, ok := wantPts[p.ID]
		if !ok {
			bad = append(bad, p.ID+": not in the reference")
			continue
		}
		keys := make([]string, 0, len(p.Values))
		for k := range p.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if v, ok := w[k]; !ok || v != p.Values[k] {
				bad = append(bad, fmt.Sprintf("%s %s = %v, want %v", p.ID, k, p.Values[k], v))
			}
		}
	}
	if want.Digest != got.Digest {
		bad = append(bad, fmt.Sprintf("output digest %s, want %s", got.Digest, want.Digest))
	}
	return bad
}

// checkReferences compares a run's output with every reference that pins
// it: the committed bench/testdata file at referenceSeed, and, at paper
// scale, the repository's paper_scale_results.txt. The report says which
// references were checked; mismatches come back as problems.
func checkReferences(root string, w workload, seed int64, o output, digest string) (report string, bad []string) {
	if seed != referenceSeed {
		return "none at this seed (compare output digests)", nil
	}
	var checked []string
	want, err := readReference(referencePath(root, w.Name))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		bad = append(bad, "missing reference "+referencePath(root, w.Name))
	case err != nil:
		bad = append(bad, err.Error())
	default:
		checked = append(checked, "bench/testdata/"+w.Name+".json")
		bad = append(bad, diffReference(want, newReference(w, seed, o, digest))...)
	}
	opts := w.options(seed)
	paper := experiments.PaperScale()
	if w.Open == nil && opts.Cardinality == paper.Cardinality && opts.Processors == paper.Processors {
		pr, err := readPaperResults(filepath.Join(root, paperResultsFile))
		if err != nil {
			return strings.Join(checked, ", "), append(bad, err.Error())
		}
		checked = append(checked, paperResultsFile)
		rows := opts.WarmupQueries == paper.WarmupQueries && opts.MeasureQueries == paper.MeasureQueries
		for _, f := range o.Figures {
			bad = append(bad, pr.check(f, opts, rows)...)
		}
	}
	return "matched " + strings.Join(checked, ", "), bad
}

// paperResultsFile is the committed paper-scale run at seed 1: per figure
// the throughput table, MAGIC's construction note and the detail table.
const paperResultsFile = "paper_scale_results.txt"

// paperFigure is one figure's section of paperResultsFile.
type paperFigure struct {
	notes  []string
	tables []table // throughput table, then detail table
}

// table is a rendered stats.Table split into cells by column name.
type table struct {
	header []string
	rows   [][]string
}

var (
	figureTitle = regexp.MustCompile(`^Figure (\w+)(:| detail)`)
	cellSep     = regexp.MustCompile(`\s{2,}`)
)

type paperResults map[string]*paperFigure

// readPaperResults parses paperResultsFile: a "Figure <id>" title line
// starts a table whose next line is the header and whose rows follow a
// dashed rule; an indented "magic:" line is a construction note.
func readPaperResults(path string) (paperResults, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pr := paperResults{}
	var fig *paperFigure
	var tb *table
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case figureTitle.MatchString(line):
			id := figureTitle.FindStringSubmatch(line)[1]
			if pr[id] == nil {
				pr[id] = &paperFigure{}
			}
			fig = pr[id]
			fig.tables = append(fig.tables, table{})
			tb = &fig.tables[len(fig.tables)-1]
		case fig == nil || trimmed == "":
			tb = nil
		case strings.HasPrefix(trimmed, "magic:"):
			fig.notes = append(fig.notes, trimmed)
			tb = nil
		case tb == nil || strings.Trim(trimmed, "-") == "":
		case tb.header == nil:
			tb.header = cellSep.Split(trimmed, -1)
		default:
			tb.rows = append(tb.rows, cellSep.Split(trimmed, -1))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return pr, nil
}

// parseTable splits a rendered stats.Table (title, header, rule, rows).
func parseTable(rendered string) table {
	lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
	var t table
	if len(lines) > 1 {
		t.header = cellSep.Split(strings.TrimSpace(lines[1]), -1)
	}
	for _, l := range lines[min(3, len(lines)):] {
		t.rows = append(t.rows, cellSep.Split(strings.TrimSpace(l), -1))
	}
	return t
}

// check compares one figure's output with its paper section: the MAGIC
// notes always, and, when the run used the paper's query windows, every
// cell of the throughput and detail tables whose column the paper file has,
// row by row, rendered exactly as declusterbench renders them. Columns the
// paper file lacks (newer ones) are skipped; rows the run did not measure
// are not required.
func (pr paperResults) check(f figureOutput, opts experiments.Options, rows bool) []string {
	pf := pr[f.ID]
	if pf == nil {
		return []string{fmt.Sprintf("fig %s: no section in %s", f.ID, paperResultsFile)}
	}
	var bad []string
	if strings.Join(pf.notes, "\n") != strings.Join(f.Notes, "\n") {
		bad = append(bad, fmt.Sprintf("fig %s notes %q, %s has %q", f.ID, f.Notes, paperResultsFile, pf.notes))
	}
	if !rows {
		return bad
	}
	fig, err := experiments.FigureByID(f.ID)
	if err != nil {
		return append(bad, err.Error())
	}
	fr := experiments.FigureResult{Figure: fig, Options: opts, Points: f.Closed, Notes: f.Notes}
	got := []table{parseTable(fr.Table().String()), parseTable(fr.DetailTable().String())}
	// Rows are keyed by their leading cells: MPL in the throughput table,
	// strategy and MPL in the detail table.
	for i, keyCells := range []int{1, 2} {
		if i >= len(pf.tables) {
			return append(bad, fmt.Sprintf("fig %s: %s lacks table %d", f.ID, paperResultsFile, i+1))
		}
		want := pf.tables[i]
		wantRows := map[string][]string{}
		for _, r := range want.rows {
			wantRows[strings.Join(r[:min(keyCells, len(r))], "/")] = r
		}
		for _, r := range got[i].rows {
			key := strings.Join(r[:min(keyCells, len(r))], "/")
			wr, ok := wantRows[key]
			if !ok {
				bad = append(bad, fmt.Sprintf("fig %s: row %s not in %s", f.ID, key, paperResultsFile))
				continue
			}
			for wc, name := range want.header {
				gc := indexOf(got[i].header, name)
				if gc < 0 || gc >= len(r) || wc >= len(wr) {
					continue
				}
				if r[gc] != wr[wc] {
					bad = append(bad, fmt.Sprintf("fig %s row %s %q = %s, %s has %s",
						f.ID, key, name, r[gc], paperResultsFile, wr[wc]))
				}
			}
		}
	}
	return bad
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
