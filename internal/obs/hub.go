package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Hub aggregates the live samplers of a campaign's in-flight (and
// finished) runs behind one HTTP scrape endpoint. Jobs register their
// sampler under the job id when they start; the handler renders every
// registered sampler's current series in OpenMetrics text format with a
// run="<id>" label. Registration and scraping are concurrent-safe, and a
// sampler stays registered after its job completes so a scrape landing
// between jobs still sees data.
//
// A nil *Hub disables registration (no-ops), so plumbing can pass one
// through unconditionally.
type Hub struct {
	mu    sync.Mutex
	runs  map[string]*Sampler
	order []string
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{runs: make(map[string]*Sampler)}
}

// Register attaches a run's sampler under the given id, replacing any
// previous sampler with that id. No-op on a nil hub or nil sampler.
func (h *Hub) Register(id string, s *Sampler) {
	if h == nil || s == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.runs[id]; !ok {
		h.order = append(h.order, id)
	}
	h.runs[id] = s
}

// Runs reports the registered run ids, sorted.
func (h *Hub) Runs() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.order...)
	sort.Strings(out)
	return out
}

// ServeHTTP renders every registered sampler in OpenMetrics text format.
// The declusterbench_up gauge is always present, so a scraper can tell an
// idle endpoint from a broken one.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	ids := append([]string(nil), h.order...)
	sort.Strings(ids) // a stable exposition
	samplers := make([]*Sampler, len(ids))
	for i, id := range ids {
		samplers[i] = h.runs[id]
	}
	h.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE declusterbench_up gauge\ndeclusterbench_up 1\n")
	fmt.Fprintf(w, "# TYPE declusterbench_runs gauge\ndeclusterbench_runs %d\n", len(ids))
	for i, id := range ids {
		label := `run="` + escapeLabel(id) + `"`
		if err := samplers[i].WriteOpenMetrics(w, label); err != nil {
			return
		}
	}
	fmt.Fprintf(w, "# EOF\n")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
