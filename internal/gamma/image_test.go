package gamma

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rebalance"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Two machines over one storage image run at the same time, one a closed
// run and one a serving run, each with chained replicas, heat and an
// elastic join that stages a new generation onto its standby. Each gets
// the result the same machine gets running alone, and neither writes the
// image: run under -race, a write would show as a data race. AddRelation
// on one of them derives a new image and leaves the shared one as it was.
func TestSharedImage(t *testing.T) {
	rel, berd, cfg, closed, serving := imageFixture()
	other := storage.GenerateWisconsin(storage.GenSpec{Name: "other", Cardinality: 500, Seed: 12})
	build := func() *Machine {
		m, err := Build(rel, berd(rel, 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddRelation(other, berd(other, 4)); err != nil {
			t.Fatal(err)
		}
		return m
	}

	alone := build()
	wantClosed, err := closed(alone)
	if err != nil {
		t.Fatal(err)
	}
	wantServe, err := serving(alone)
	if err != nil {
		t.Fatal(err)
	}
	alone.Close()
	for _, rep := range []*rebalance.Report{wantClosed.Rebalance, wantServe.Rebalance} {
		if rep == nil || len(rep.Tasks) != 1 || rep.Tasks[0].Err != "" {
			t.Fatalf("rebalance report = %+v, want one completed join", rep)
		}
	}

	a := build()
	defer a.Close()
	b, err := New(a.img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var (
		wg                 sync.WaitGroup
		gotClosed          RunResult
		gotServe           ServeResult
		errClosed, errServ error
	)
	wg.Add(2)
	go func() { defer wg.Done(); gotClosed, errClosed = closed(a) }()
	go func() { defer wg.Done(); gotServe, errServ = serving(b) }()
	wg.Wait()
	if errClosed != nil || errServ != nil {
		t.Fatalf("shared-image runs failed: %v, %v", errClosed, errServ)
	}
	if !reflect.DeepEqual(gotClosed, wantClosed) {
		t.Errorf("closed run over a shared image:\n%+v\nalone:\n%+v", gotClosed, wantClosed)
	}
	if !reflect.DeepEqual(gotServe, wantServe) {
		t.Errorf("serving run over a shared image:\n%+v\nalone:\n%+v", gotServe, wantServe)
	}

	shared := a.img
	marks := append([]int(nil), shared.marks...)
	third := storage.GenerateWisconsin(storage.GenSpec{Name: "third", Cardinality: 300, Seed: 13})
	if err := b.AddRelation(third, berd(third, 4)); err != nil {
		t.Fatal(err)
	}
	if b.img == shared || len(b.img.rels) != 3 {
		t.Fatal("AddRelation did not derive a new image")
	}
	if a.img != shared || len(shared.rels) != 2 || !reflect.DeepEqual(shared.marks, marks) {
		t.Fatal("AddRelation on one machine changed the image the other shares")
	}
}

// imageFixture is a 4-node BERD machine's relation, placement builder and
// config — chained replicas, heat, and an elastic join at 200 ms that
// stages a generation onto a standby — plus a closed and a serving run.
func imageFixture() (*storage.Relation, func(*storage.Relation, int) core.Placement, Config,
	func(*Machine) (RunResult, error), func(*Machine) (ServeResult, error)) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 11})
	berd := func(rel *storage.Relation, procs int) core.Placement {
		return core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, procs)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.ChainedReplicas = true
	cfg.Heat = &HeatSpec{}
	cfg.Elastic = &ElasticSpec{
		Events: []rebalance.Event{{At: 200 * sim.Millisecond, Kind: rebalance.Join}},
		Rebuild: func(rel *storage.Relation, procs int) (core.Placement, error) {
			return berd(rel, procs), nil
		},
	}
	mix := workload.LowLow(rel.Cardinality())
	closed := func(m *Machine) (RunResult, error) {
		return m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 400})
	}
	serving := func(m *Machine) (ServeResult, error) {
		return m.RunServe(mix, ServeSpec{
			Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 100},
			WarmupQueries:  5,
			MeasureQueries: 300,
			MaxSimTime:     30 * sim.Second,
		})
	}
	return rel, berd, cfg, closed, serving
}

// A machine from New over NewImage's image has no engine until it runs,
// then gives a closed and a serving run (chained replicas, heat, an
// elastic join) the results a Build machine gives. New refuses a config
// whose layout-shaping fields differ from the image's.
func TestNewMatchesBuild(t *testing.T) {
	rel, berd, cfg, closed, serving := imageFixture()
	pl := berd(rel, 4)
	built, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	wantClosed, err := closed(built)
	if err != nil {
		t.Fatal(err)
	}
	wantServe, err := serving(built)
	if err != nil {
		t.Fatal(err)
	}

	img, err := NewImage(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Eng != nil || m.Host != nil {
		t.Fatal("New built an engine before the first run")
	}
	if m.Relation != rel || m.Placement != pl {
		t.Fatal("New's machine does not target the image's relation and placement")
	}
	gotClosed, err := closed(m)
	if err != nil {
		t.Fatal(err)
	}
	gotServe, err := serving(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotClosed, wantClosed) {
		t.Errorf("closed run on a New machine:\n%+v\nBuild machine:\n%+v", gotClosed, wantClosed)
	}
	if !reflect.DeepEqual(gotServe, wantServe) {
		t.Errorf("serving run on a New machine:\n%+v\nBuild machine:\n%+v", gotServe, wantServe)
	}
	if rep := gotServe.Rebalance; rep == nil || len(rep.Tasks) != 1 || rep.Tasks[0].Err != "" {
		t.Fatalf("rebalance report = %+v, want one completed join", rep)
	}

	for name, mutate := range map[string]func(*Config){
		"layout":   func(c *Config) { c.Layout.TuplesPerPage++ },
		"chained":  func(c *Config) { c.ChainedReplicas = false },
		"pages":    func(c *Config) { c.HW.Cylinders++ },
		"validate": func(c *Config) { c.BufferPages = -1 },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := New(img, bad); err == nil {
			t.Errorf("New accepted a config with a different %s", name)
		}
	}
}
