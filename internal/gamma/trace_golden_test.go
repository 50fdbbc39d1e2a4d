package gamma

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
	"repro/internal/workload"
)

// updateTraces regenerates the trace goldens: go test ./internal/gamma -run
// TraceGolden -update-traces.
var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/*_trace.golden from the current schedule")

const (
	selectionTraceGolden = "testdata/selection_trace.golden"
	joinTraceGolden      = "testdata/join_trace.golden"
	aggregateTraceGolden = "testdata/aggregate_trace.golden"
	sharedTraceGolden    = "testdata/shared_scan_trace.golden"
)

// tracedQuery is one plan a golden trace runs on a cold machine.
type tracedQuery struct {
	label  string // rendered after the strategy name in the section header
	plan   *plan.Node
	tuples int // expected result cardinality
}

// traceQueries builds the cold 2000-tuple, 8-processor golden machines
// (range, BERD and MAGIC) and runs each query that queries returns on each
// of them, fault-free and alone, rendering its complete JSONL trace
// followed by its result: the ServedBy attribution for selections, and
// cardinality and value for joins and aggregates.
func traceQueries(t *testing.T, queries func(rel *storage.Relation, mix workload.Mix) []tracedQuery) []byte {
	t.Helper()
	rel, mix, machines := goldenMachines(t, DefaultConfig())
	var out bytes.Buffer
	for _, mc := range machines {
		for _, q := range queries(rel, mix) {
			m := mc.m
			sink := startTrace(&out, m, mc.name+" "+q.label)
			var res exec.QueryResult
			simtest.Spawn(m.Eng, "probe", func(p *simtest.Proc) {
				res = submit(p, m.Host, q.plan)
				m.Eng.Stop()
			})
			runTraced(t, m, sink)
			if res.Tuples != q.tuples {
				t.Fatalf("%s %s: %d tuples, want %d", mc.name, q.label, res.Tuples, q.tuples)
			}
			if k := q.plan.Kind; k == plan.KindJoin || k == plan.KindAggregate {
				fmt.Fprintf(&out, "result: tuples=%d value=%d processors=%d\n",
					res.Tuples, res.Value, res.ProcessorsUsed)
				continue
			}
			fmt.Fprintf(&out, "served by:\n")
			for _, op := range res.ServedBy {
				fmt.Fprintf(&out, "  %s\n", op)
			}
		}
	}
	return out.Bytes()
}

// namedMachine is one golden machine and the strategy name its sections
// carry.
type namedMachine struct {
	name string
	m    *Machine
}

// goldenMachines builds the cold 2000-tuple, 8-processor golden machines
// (range, BERD and MAGIC) under cfg.
func goldenMachines(t *testing.T, cfg Config) (*storage.Relation, workload.Mix, []namedMachine) {
	t.Helper()
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 11})
	mix := workload.LowLow(rel.Cardinality())
	return rel, mix, []namedMachine{
		{"range", buildRange(t, rel, cfg)},
		{"berd", buildBERD(t, rel, cfg)},
		{"magic", buildMAGIC(t, rel, cfg, mix)},
	}
}

// startTrace resets m to a cold machine and writes its JSONL trace into
// out under a section header.
func startTrace(out *bytes.Buffer, m *Machine, header string) *obs.JSONLSink {
	m.Reset()
	fmt.Fprintf(out, "=== %s ===\n", header)
	sink := obs.NewJSONLSink(out)
	m.Eng.SetSink(sink)
	return sink
}

// runTraced runs m until its probes stop it.
func runTraced(t *testing.T, m *Machine, sink *obs.JSONLSink) {
	t.Helper()
	if err := m.Eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
}

// selectionTrace runs one selection per attribute (A = unique1,
// B = unique2), each returning 10 tuples.
func selectionTrace(t *testing.T) []byte {
	return traceQueries(t, func(rel *storage.Relation, mix workload.Mix) []tracedQuery {
		var qs []tracedQuery
		for _, attr := range []int{storage.Unique1, storage.Unique2} {
			pred := core.Predicate{Attr: attr, Lo: 1000, Hi: 1009}
			qs = append(qs, tracedQuery{pred.String(),
				plan.Select(rel.Name, pred, mix.AccessChooser()(pred)), 10})
		}
		return qs
	})
}

// joinTrace runs one self-join on unique1 of two overlapping unique1
// ranges; unique1 is a key, so the 20 tuples of the overlap match.
func joinTrace(t *testing.T) []byte {
	return traceQueries(t, func(rel *storage.Relation, mix workload.Mix) []tracedQuery {
		access := mix.AccessChooser()
		build := core.Predicate{Attr: storage.Unique1, Lo: 1000, Hi: 1039}
		probe := core.Predicate{Attr: storage.Unique1, Lo: 1020, Hi: 1059}
		return []tracedQuery{{fmt.Sprintf("join %v with %v", build, probe),
			plan.NewJoin(storage.Unique1,
				plan.NewIndexScan(rel.Name, build, access(build)),
				plan.NewIndexScan(rel.Name, probe, access(probe))), 20}}
	})
}

// aggregateTrace runs one SUM(unique1) over a 100-tuple unique2 range.
func aggregateTrace(t *testing.T) []byte {
	return traceQueries(t, func(rel *storage.Relation, mix workload.Mix) []tracedQuery {
		pred := core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1099}
		return []tracedQuery{{fmt.Sprintf("sum(unique1) where %v", pred),
			plan.NewAggregate(plan.AggSum, storage.Unique1,
				plan.NewIndexScan(rel.Name, pred, mix.AccessChooser()(pred))), 100}}
	})
}

// sharedScanTrace arms shared scans and submits three overlapping unique1
// selections at once. Their scans hit the same fragments with the same
// access method inside one batching window, so each fragment serves them
// with one batch: one disk pass for the union of their pages, then one
// reply per member, in admission order.
func sharedScanTrace(t *testing.T) []byte {
	cfg := DefaultConfig()
	cfg.Sharing = &SharingSpec{}
	rel, mix, machines := goldenMachines(t, cfg)
	preds := []core.Predicate{
		{Attr: storage.Unique1, Lo: 1000, Hi: 1029},
		{Attr: storage.Unique1, Lo: 1010, Hi: 1039},
		{Attr: storage.Unique1, Lo: 1020, Hi: 1049},
	}
	var out bytes.Buffer
	for _, mc := range machines {
		m := mc.m
		sink := startTrace(&out, m, mc.name+" shared scan of 3 selections")
		res := make([]exec.QueryResult, len(preds))
		left := len(preds)
		for i, pred := range preds {
			q := plan.Select(rel.Name, pred, mix.AccessChooser()(pred))
			simtest.Spawn(m.Eng, fmt.Sprintf("probe%d", i), func(p *simtest.Proc) {
				res[i] = submit(p, m.Host, q)
				if left--; left == 0 {
					m.Eng.Stop()
				}
			})
		}
		runTraced(t, m, sink)
		for i, r := range res {
			if r.Tuples != 30 {
				t.Fatalf("%s %v: %d tuples, want 30", mc.name, preds[i], r.Tuples)
			}
			fmt.Fprintf(&out, "%v served by:\n", preds[i])
			for _, op := range r.ServedBy {
				fmt.Fprintf(&out, "  %s\n", op)
			}
		}
		fmt.Fprintf(&out, "sharing: %v\n", m.sharingStats())
	}
	return out.Bytes()
}

// TestSelectionTraceGolden pins the complete fault-free selection
// schedule — every span and instant the scheduler, network, CPUs, disks
// and buffer pools emit, with names, details and timestamps — against a
// committed trace. Regenerate the golden only for a change that means to
// alter the fault-free schedule, and say why in that change.
func TestSelectionTraceGolden(t *testing.T) {
	checkTraceGolden(t, selectionTraceGolden, selectionTrace(t))
}

// TestJoinTraceGolden pins the fault-free join schedule the same way.
func TestJoinTraceGolden(t *testing.T) {
	checkTraceGolden(t, joinTraceGolden, joinTrace(t))
}

// TestAggregateTraceGolden pins the fault-free aggregate schedule the same
// way.
func TestAggregateTraceGolden(t *testing.T) {
	checkTraceGolden(t, aggregateTraceGolden, aggregateTrace(t))
}

// TestSharedScanTraceGolden pins the fault-free schedule of a shared-scan
// batch the same way: the host's window flush, the batch's deduplicated
// page reads and its per-member replies.
func TestSharedScanTraceGolden(t *testing.T) {
	checkTraceGolden(t, sharedTraceGolden, sharedScanTrace(t))
}

// checkTraceGolden fails at the first line where got departs from the
// golden file at path.
func checkTraceGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateTraces {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("trace drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}
