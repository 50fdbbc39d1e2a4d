package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func scrapeHub(t *testing.T, h *Hub) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	return rec.Body.String()
}

func hubSampler(v float64) *Sampler {
	s := NewSampler(winNS, 8)
	s.Register("serve.goodput_qps", SeriesGauge, func() float64 { return v })
	s.Sample(winNS)
	return s
}

func TestHubServeHTTP(t *testing.T) {
	h := NewHub()
	h.Register("figB/strat", hubSampler(2)) // out of order on purpose
	h.Register("figA/strat", hubSampler(1))

	body := scrapeHub(t, h)
	for _, want := range []string{
		"# TYPE declusterbench_up gauge\ndeclusterbench_up 1\n",
		"declusterbench_runs 2\n",
		`serve_goodput_qps{run="figA/strat"} 1`,
		`serve_goodput_qps{run="figB/strat"} 2`,
		"# EOF\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q in:\n%s", want, body)
		}
	}
	// Exposition sorts runs by id regardless of registration order.
	if strings.Index(body, "figA/strat") > strings.Index(body, "figB/strat") {
		t.Error("runs not sorted by id")
	}
}

func TestHubLabelEscaping(t *testing.T) {
	h := NewHub()
	h.Register("we\"ird\\id\n", hubSampler(1))
	body := scrapeHub(t, h)
	if !strings.Contains(body, `run="we\"ird\\id\n"`) {
		t.Errorf("label not escaped:\n%s", body)
	}
}

func TestHubRegisterReplace(t *testing.T) {
	h := NewHub()
	if !strings.Contains(scrapeHub(t, h), "declusterbench_runs 0") {
		t.Error("empty hub should still expose the up/runs gauges")
	}
	h.Register("r", hubSampler(1))
	h.Register("r", hubSampler(5)) // replace under the same id
	if got := h.Runs(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Runs = %v", got)
	}
	if !strings.Contains(scrapeHub(t, h), "serve_goodput_qps{run=\"r\"} 5") {
		t.Error("replacement sampler not served")
	}
}

func TestHubNilIsNoOp(t *testing.T) {
	var h *Hub
	h.Register("x", hubSampler(1))
	if h.Runs() != nil {
		t.Error("nil hub leaked state")
	}
	// Registering a nil sampler is ignored too.
	h2 := NewHub()
	h2.Register("x", nil)
	if len(h2.Runs()) != 0 {
		t.Error("nil sampler registered")
	}
}
