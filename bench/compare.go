package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json that judges a comparison: each
// end-to-end metric's direction and the share of the base median by which
// it may worsen.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// compareMain prints one row per workload and end-to-end metric with its
// verdict, then every exact count and output digest that moved. It returns
// the exit status: 1 when any metric got worse or any exact value moved.
func compareMain(root string, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.json head.json")
		return 2
	}
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]resultsFile
	for i, path := range args {
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if bad := compareResults(sp, files[0], files[1], w); bad {
		return 1
	}
	return 0
}

// compareResults writes the comparison table and reports whether it found a
// regression or a moved exact value.
func compareResults(sp spec, base, head resultsFile, w io.Writer) bool {
	fmt.Fprintf(w, "base host: %d CPU %s, %d MB, %s\n", base.Host.NumCPU, base.Host.CPU, base.Host.MemoryMB, base.Host.Go)
	fmt.Fprintf(w, "head host: %d CPU %s, %d MB, %s\n", head.Host.NumCPU, head.Host.CPU, head.Host.MemoryMB, head.Host.Go)
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	bad := false
	for _, h := range head.Results {
		var b *workloadResult
		for i := range base.Results {
			if base.Results[i].Workload == h.Workload && base.Results[i].Seed == h.Seed {
				b = &base.Results[i]
			}
		}
		if b == nil {
			fmt.Fprintf(w, "%-18s only in head (seed %d)\n", h.Workload, h.Seed)
			continue
		}
		for _, def := range sp.EndToEnd {
			bm, ok1 := b.metric(def.Name)
			hm, ok2 := h.metric(def.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(bm.summary, hm.summary, def.Bound, def.Better == "higher")
			bad = bad || v == verdictWorse
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", h.Workload, def.Name,
				bm.Median, hm.Median, 100*(hm.Median-bm.Median)/bm.Median, 100*def.Bound, v)
		}
		for _, hm := range h.Metrics {
			bm, ok := b.metric(hm.Name)
			if hm.Exact && ok && bm.Median != hm.Median {
				bad = true
				fmt.Fprintf(w, "%-18s exact %s moved: %v -> %v\n", h.Workload, hm.Name, bm.Median, hm.Median)
			}
		}
		if b.Digest != h.Digest {
			bad = true
			fmt.Fprintf(w, "%-18s output digest moved: %s -> %s\n", h.Workload, b.Digest, h.Digest)
		}
		if !h.Correct {
			bad = true
			fmt.Fprintf(w, "%-18s head run is incorrect (%d failed)\n", h.Workload, h.Failed)
		}
	}
	return bad
}
