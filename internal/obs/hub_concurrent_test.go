package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Registrations race against in-flight scrapes in production: the
// campaign registers each point's sampler as its job completes while CI
// polls /metrics. This test drives both concurrently, each worker
// replacing its own run's sampler, and is meant to run under -race; the
// assertions require that every scrape stays well-formed and that each
// worker's run stays registered once.
func TestHubConcurrentRegisterScrape(t *testing.T) {
	h := NewHub()
	const workers, iters = 4, 50

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				h.Register(id, hubSampler(float64(i)))
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				body := rec.Body.String()
				if !strings.Contains(body, "declusterbench_up 1\n") ||
					!strings.HasSuffix(body, "# EOF\n") {
					t.Errorf("malformed scrape:\n%s", body)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := h.Runs(); len(got) != workers {
		t.Errorf("Runs = %v, want one per worker", got)
	}
}
