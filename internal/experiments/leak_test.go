package experiments

import (
	"runtime"
	"testing"
	"time"
)

// A finished campaign must release its machines and storage images: every
// job closes the machine it built over its placement's shared image, so
// the process goroutines of each run exit and the run's engines, nodes and
// buffer pools become garbage, and the last job of a placement drops the
// image. Without the machine teardown a quick-scale fig 8a campaign left
// about 2,750 goroutines parked and 133 MB of heap reachable per call.
func TestCampaignReleasesMachines(t *testing.T) {
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	base := runtime.NumGoroutine()

	c, err := RunCampaign([]Figure{fig}, QuickScale(), CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Figures) != 1 || len(c.Figures[0].Points) != 12 {
		t.Fatalf("campaign returned %d figures, want 1 with 12 points", len(c.Figures))
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the campaign, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = 8 << 20
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained heap after the campaign: %.2f MB", float64(grew)/(1<<20))
	if grew > bound {
		t.Fatalf("campaign left %.1f MB of heap reachable, want <= %d MB",
			float64(grew)/(1<<20), bound>>20)
	}
	runtime.KeepAlive(c)
}
