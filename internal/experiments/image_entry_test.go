package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/storage"
	"repro/internal/workload"
)

// imageEntryFor returns an entry for n jobs whose layout of a small
// 4-node BERD machine under cfg counts its calls, plus the mix to run.
func imageEntryFor(n int, cfg gamma.Config) (*imageEntry, *atomic.Int64, workload.Mix) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 1000, Seed: 5})
	pl := core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, 4)
	var layouts atomic.Int64
	entry := &imageEntry{jobs: n, layOut: func() (*gamma.Image, error) {
		layouts.Add(1)
		return gamma.NewImage(rel, pl, cfg)
	}}
	return entry, &layouts, workload.LowLow(rel.Cardinality())
}

// The shared storage image of one campaign key: jobs that all ask for it
// first cause exactly one layout and get the same image, the last release
// drops it, a layout error reaches every job, and a job that errors or
// panics still releases. Run under -race in CI.
func TestSharedImageEntry(t *testing.T) {
	const n = 8
	// acquireAll has n goroutines ask for the entry at once.
	acquireAll := func(entry *imageEntry) ([]*gamma.Image, []error) {
		imgs, errs := make([]*gamma.Image, n), make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				imgs[i], errs[i] = entry.acquire()
			}()
		}
		close(start)
		wg.Wait()
		return imgs, errs
	}

	t.Run("one layout, dropped on the last release", func(t *testing.T) {
		entry, layouts, _ := imageEntryFor(n, gamma.DefaultConfig())
		imgs, errs := acquireAll(entry)
		for i := range imgs {
			if errs[i] != nil || imgs[i] == nil || imgs[i] != imgs[0] {
				t.Fatalf("user %d got (%p, %v), want the one image %p", i, imgs[i], errs[i], imgs[0])
			}
		}
		if got := layouts.Load(); got != 1 {
			t.Fatalf("%d concurrent first users caused %d layouts, want 1", n, got)
		}
		for i := 0; i < n-1; i++ {
			entry.release()
		}
		if entry.img != imgs[0] {
			t.Fatal("the image was dropped before the last job released it")
		}
		entry.release()
		if entry.img != nil || entry.jobs != 0 {
			t.Fatalf("after the last release: image %p, %d jobs left; want nil, 0", entry.img, entry.jobs)
		}
	})

	t.Run("a layout error reaches every user", func(t *testing.T) {
		var layouts atomic.Int64
		boom := errors.New("layout failed")
		entry := &imageEntry{jobs: n, layOut: func() (*gamma.Image, error) {
			layouts.Add(1)
			return nil, boom
		}}
		_, errs := acquireAll(entry)
		for i, err := range errs {
			if !errors.Is(err, boom) {
				t.Fatalf("user %d got error %v, want %v", i, err, boom)
			}
		}
		if got := layouts.Load(); got != 1 {
			t.Fatalf("a failing layout ran %d times, want 1", got)
		}
	})

	t.Run("failed and panicked jobs release", func(t *testing.T) {
		var sc Scenario
		opts := Options{WarmupQueries: 2, MeasureQueries: 20, Seed: 1}
		job := func(id string, entry *imageEntry, cfg gamma.Config, mix workload.Mix) harness.Job {
			return harness.Job{ID: id, Run: sc.job(ScenarioPoint{ID: id, MPL: 2}, entry, cfg, mix, opts, nil)}
		}
		cfg := gamma.DefaultConfig()
		entry, layouts, mix := imageEntryFor(2, cfg)
		bad := cfg
		bad.BufferPages = -1 // New rejects it after the entry is acquired
		// A 4-page disk cannot hold the relation: its layout panics once,
		// and the panic reaches each job of the entry.
		tiny := cfg
		tiny.HW.Cylinders, tiny.HW.PagesPerCylinder = 1, 4
		full, fullLayouts, _ := imageEntryFor(2, tiny)
		jobs := []harness.Job{
			job("runs", entry, cfg, mix),
			job("fails", entry, bad, mix),
			job("panics", full, tiny, mix),
			job("panics again", full, tiny, mix),
		}
		_, man, err := harness.Execute(jobs, harness.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := man.Reports
		if r[0].Failed() || r[1].Error == "" || r[1].Panicked || !r[2].Panicked || !r[3].Panicked {
			t.Fatalf("job reports = %+v, want a success, an error and two panics", r)
		}
		if got := layouts.Load(); got != 1 {
			t.Fatalf("two jobs of one key caused %d layouts, want 1", got)
		}
		if got := fullLayouts.Load(); got != 1 {
			t.Fatalf("a panicking layout ran %d times for two jobs, want 1", got)
		}
		for _, e := range []*imageEntry{entry, full} {
			if e.img != nil || e.jobs != 0 {
				t.Fatalf("after the jobs: image %p, %d jobs left; want nil, 0", e.img, e.jobs)
			}
		}
	})
}

// A panic inside a simulated process (here the terminals sampling an empty
// mix) fails the job as a panic, not as an ordinary error, and the job
// still releases its entry.
func TestScenarioJobReportsSimulatedPanic(t *testing.T) {
	cfg := gamma.DefaultConfig()
	entry, _, _ := imageEntryFor(1, cfg)
	var sc Scenario
	opts := Options{WarmupQueries: 2, MeasureQueries: 20, Seed: 1}
	pt := ScenarioPoint{ID: "empty-mix", MPL: 2}
	_, man, err := harness.Execute([]harness.Job{
		{ID: pt.ID, Run: sc.job(pt, entry, cfg, workload.Mix{}, opts, nil)},
	}, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := man.Reports[0]; !r.Panicked || !strings.Contains(r.Error, "workload: empty mix") {
		t.Fatalf("job report = %+v, want a panic naming the empty mix", r)
	}
	if entry.img != nil || entry.jobs != 0 {
		t.Fatalf("after the job: image %p, %d jobs left; want nil, 0", entry.img, entry.jobs)
	}
}
