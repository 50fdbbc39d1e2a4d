package gamma

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

const selectionTraceGolden = "testdata/selection_trace.golden"

// selectionTrace runs one fault-free selection per strategy (range, BERD,
// MAGIC) and attribute (A = unique1, B = unique2) on a cold 2000-tuple,
// 8-processor machine, and renders each query's complete JSONL trace
// followed by its ServedBy attribution.
func selectionTrace(t *testing.T) []byte {
	t.Helper()
	cfg := smallConfig()
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 11})
	mix := workload.LowLow(rel.Cardinality())
	machines := []struct {
		name string
		m    *Machine
	}{
		{"range", buildRange(t, rel, cfg)},
		{"berd", buildBERD(t, rel, cfg)},
		{"magic", buildMAGIC(t, rel, cfg, mix)},
	}
	var out bytes.Buffer
	for _, mc := range machines {
		for _, attr := range []int{storage.Unique1, storage.Unique2} {
			pred := core.Predicate{Attr: attr, Lo: 1000, Hi: 1009}
			m := mc.m
			m.Reset()
			fmt.Fprintf(&out, "=== %s %v ===\n", mc.name, pred)
			sink := obs.NewJSONLSink(&out)
			m.Eng.SetSink(sink)
			var res exec.QueryResult
			m.Eng.Spawn("probe", func(p *sim.Proc) {
				res = m.Host.Submit(p, plan.Select(rel.Name, pred, mix.AccessChooser()(pred)))
				m.Eng.Stop()
			})
			if err := m.Eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
				t.Fatal(err)
			}
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			if res.Tuples != 10 {
				t.Fatalf("%s %v: %d tuples, want 10", mc.name, pred, res.Tuples)
			}
			fmt.Fprintf(&out, "served by:\n")
			for _, op := range res.ServedBy {
				fmt.Fprintf(&out, "  %s\n", op)
			}
		}
	}
	return out.Bytes()
}

// TestSelectionTraceGolden pins the complete fault-free selection
// schedule — every span and instant the scheduler, network, CPUs, disks
// and buffer pools emit, with names, details and timestamps — against a
// committed trace. Regenerate the golden only for a change that means to
// alter the fault-free schedule, and say why in that change.
func TestSelectionTraceGolden(t *testing.T) {
	got := selectionTrace(t)
	want, err := os.ReadFile(selectionTraceGolden)
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
			t.Fatalf("selection trace drifted from %s at line %d:\ngot:  %s\nwant: %s",
				selectionTraceGolden, i+1, g, w)
		}
	}
}
