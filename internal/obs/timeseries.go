package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"
)

// SeriesKind says how a probe's raw reading becomes the stored sample.
type SeriesKind uint8

const (
	// SeriesGauge stores the probe's reading as-is (queue depth, credits,
	// skew): a point-in-time value.
	SeriesGauge SeriesKind = iota
	// SeriesCounter stores the cumulative reading as-is (completed queries,
	// disk reads): a monotone level whose slope is the rate.
	SeriesCounter
	// SeriesRate stores the per-second increase of a cumulative reading over
	// the window (goodput q/s, windowed utilization from busy-seconds):
	// (cur - prev) / window, clamped at 0 when the source was reset.
	SeriesRate
)

// String names the kind for exports.
func (k SeriesKind) String() string {
	switch k {
	case SeriesGauge:
		return "gauge"
	case SeriesCounter:
		return "counter"
	case SeriesRate:
		return "rate"
	}
	return "unknown"
}

// Probe reads one instrument's current value. Probes run on the simulation
// goroutine at window boundaries and must not block or allocate.
type Probe func() float64

// SeriesPoint is one (time, value) sample.
type SeriesPoint struct {
	TNS int64   `json:"t_ns"`
	V   float64 `json:"v"`
}

// SeriesData is the serializable form of one series, as archived in run
// results and harness manifests.
type SeriesData struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	WindowNS int64         `json:"window_ns"`
	Dropped  int64         `json:"dropped,omitempty"`
	Labels   string        `json:"labels,omitempty"`
	Points   []SeriesPoint `json:"points"`
}

// series is one registered probe plus its ring of sampled values, aligned
// with the sampler's shared timestamp ring.
type series struct {
	name   string
	labels string // pre-rendered OpenMetrics label list, without braces
	kind   SeriesKind
	probe  Probe
	prev   float64 // last raw reading (SeriesRate)
	vals   []float64
}

// Sampler scrapes registered probes at sim-time window boundaries into
// rings of a fixed capacity: every series samples at the same instants, so
// the whole set is one aligned table. The rings start at initialRing
// windows (or the capacity, if smaller) and Sample doubles them up to the
// capacity as windows arrive, so a short run never pays for the whole
// capacity; once at the capacity they overwrite the oldest window and
// Sample allocates nothing. The schedule is driven by whoever calls
// Sample — here a simulated handler that wakes once per window — so the
// sample times are simulated time, never wall clock, and the full series
// is a deterministic function of (seed, config).
//
// A nil *Sampler is the disabled state: every method no-ops. The mutex
// exists for the live /metrics endpoint, which snapshots concurrently
// with the simulation's Sample calls.
type Sampler struct {
	mu       sync.Mutex
	windowNS int64
	capacity int

	lastNS  int64   // time of the previous Sample (rate divisor)
	head    int     // ring start; 0 until the rings reach the capacity
	count   int     // live samples
	dropped int64   // overwritten samples
	times   []int64 // as long as every series' vals

	series []*series
	index  map[string]*series
}

// DefaultWindowNS is the sampling window used when none is given: 250
// simulated milliseconds.
const DefaultWindowNS = 250_000_000

// DefaultCapacity bounds each series ring when no capacity is given: 960
// windows (4 simulated minutes at the default window).
const DefaultCapacity = 960

// initialRing is the number of windows a sampler's rings start with.
const initialRing = 64

// NewSampler builds a sampler with the given window (ns of simulated time)
// and per-series ring capacity; non-positive arguments take the defaults.
func NewSampler(windowNS int64, capacity int) *Sampler {
	if windowNS <= 0 {
		windowNS = DefaultWindowNS
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sampler{
		windowNS: windowNS,
		capacity: capacity,
		times:    make([]int64, min(capacity, initialRing)),
		index:    make(map[string]*series),
	}
}

// WindowNS reports the sampling window in nanoseconds (0 on nil).
func (s *Sampler) WindowNS() int64 {
	if s == nil {
		return 0
	}
	return s.windowNS
}

// Register adds a named probe. Registration happens at machine/run
// construction (cold path); duplicate names panic — two components
// claiming one series is a wiring bug. No-op on a nil sampler.
func (s *Sampler) Register(name string, kind SeriesKind, probe Probe) {
	s.RegisterLabeled(name, "", kind, probe)
}

// RegisterLabeled is Register with a pre-rendered OpenMetrics label list
// (without braces, e.g. `fragment="TENK",node="3"`) attached to the
// series: WriteOpenMetrics merges it with the scrape-level labels, and
// Snapshot carries it so exporters can reconstruct dimensioned series.
// No-op on a nil sampler.
func (s *Sampler) RegisterLabeled(name, labels string, kind SeriesKind, probe Probe) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("obs: duplicate series %q", name))
	}
	sr := &series{name: name, labels: labels, kind: kind, probe: probe, vals: make([]float64, len(s.times))}
	if kind == SeriesRate {
		sr.prev = probe()
	}
	s.index[name] = sr
	s.series = append(s.series, sr)
}

// Sample scrapes every probe at simulated time nowNS and appends one
// aligned sample per series, growing the rings while they are below the
// capacity and overwriting the oldest window once they are full at it.
// Calls that do not advance time are ignored.
func (s *Sampler) Sample(nowNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dt := nowNS - s.lastNS
	if dt <= 0 {
		return
	}
	if s.count == len(s.times) && s.count < s.capacity {
		s.grow()
	}
	slot := (s.head + s.count) % len(s.times)
	if s.count == s.capacity {
		s.head = (s.head + 1) % s.capacity
		s.dropped++
	} else {
		s.count++
	}
	s.times[slot] = nowNS
	dtSec := float64(dt) / 1e9
	for _, sr := range s.series {
		v := sr.probe()
		out := v
		if sr.kind == SeriesRate {
			delta := v - sr.prev
			if delta < 0 {
				// The source was reset underneath us (warm boundary without
				// a Rebase); a negative rate is never real.
				delta = 0
			}
			out = delta / dtSec
			sr.prev = v
		}
		sr.vals[slot] = out
	}
	s.lastNS = nowNS
}

// grow doubles the rings, up to the capacity. They are full and do not
// wrap (head is 0 below the capacity), so every sample keeps its slot.
func (s *Sampler) grow() {
	n := min(2*len(s.times), s.capacity)
	times := make([]int64, n)
	copy(times, s.times)
	s.times = times
	for _, sr := range s.series {
		vals := make([]float64, n)
		copy(vals, sr.vals)
		sr.vals = vals
	}
}

// Rebase discards all history and re-primes every rate probe at simulated
// time nowNS — the warm-up boundary hook, called right after the machine
// resets its cumulative statistics so the first measured window does not
// see a negative delta. Gauge probes are invoked too (and their readings
// discarded) so closure-state probes re-prime their own deltas.
func (s *Sampler) Rebase(nowNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.head, s.count, s.dropped = 0, 0, 0
	s.lastNS = nowNS
	for _, sr := range s.series {
		v := sr.probe()
		if sr.kind == SeriesRate {
			sr.prev = v
		}
	}
}

// Len reports the number of live windows (0 on nil).
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Snapshot copies every series, sorted by name, oldest sample first.
// Returns nil on a nil sampler.
func (s *Sampler) Snapshot() []SeriesData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesData, 0, len(s.series))
	for _, sr := range s.series {
		d := SeriesData{
			Name:     sr.name,
			Kind:     sr.kind.String(),
			WindowNS: s.windowNS,
			Dropped:  s.dropped,
			Labels:   sr.labels,
			Points:   make([]SeriesPoint, s.count),
		}
		for i := 0; i < s.count; i++ {
			slot := (s.head + i) % len(s.times)
			d.Points[i] = SeriesPoint{TNS: s.times[slot], V: sr.vals[slot]}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteSeriesCSV renders aligned series (same sample instants, as a
// Sampler produces) as one CSV table: a t_ms column followed by one column
// per series in the given order. Values print in Go's shortest-round-trip
// float format, so equal runs produce byte-identical files.
func WriteSeriesCSV(w io.Writer, series []SeriesData) error {
	if len(series) == 0 {
		return nil
	}
	var b []byte
	b = append(b, "t_ms"...)
	for _, sd := range series {
		b = append(b, ',')
		b = append(b, sd.Name...)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	rows := len(series[0].Points)
	for _, sd := range series {
		if len(sd.Points) != rows {
			return fmt.Errorf("obs: series %s has %d points, want %d (not sampled together)",
				sd.Name, len(sd.Points), rows)
		}
	}
	for i := 0; i < rows; i++ {
		b = b[:0]
		b = strconv.AppendFloat(b, float64(series[0].Points[i].TNS)/1e6, 'g', -1, 64)
		for _, sd := range series {
			b = append(b, ',')
			b = strconv.AppendFloat(b, sd.Points[i].V, 'g', -1, 64)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// WriteOpenMetrics writes every series' latest value in OpenMetrics text
// exposition format, one gauge family per series (windowed rates are
// already values, not monotone totals). labels, when non-empty, is a
// pre-rendered label list without braces (e.g. `run="fig8a/magic"`).
// Series with no samples yet are skipped. No-op on nil.
func (s *Sampler) WriteOpenMetrics(w io.Writer, labels string) error {
	if s == nil {
		return nil
	}
	snap := s.Snapshot()
	names := make([]string, len(snap))
	for i := range snap {
		names[i] = snap[i].Name
	}
	sane := SanitizeMetricNames(names)
	for i, sd := range snap {
		if len(sd.Points) == 0 {
			continue
		}
		name := sane[i]
		all := labels
		if sd.Labels != "" {
			if all != "" {
				all += ","
			}
			all += sd.Labels
		}
		last := sd.Points[len(sd.Points)-1]
		var err error
		if all != "" {
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s{%s} %s\n",
				name, name, all, strconv.FormatFloat(last.V, 'g', -1, 64))
		} else {
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n",
				name, name, strconv.FormatFloat(last.V, 'g', -1, 64))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// SanitizeMetricNames sanitizes a set of series names together,
// deterministically disambiguating collisions: the lossy per-name mapping
// can fold two distinct names (e.g. "a.b" and "a,b") onto one OpenMetrics
// name, and when that happens within a set every colliding name gains a
// "_<fnv32a(original) hex>" suffix. Non-colliding names come out exactly
// as SanitizeMetricName produces them, so stable scrape contracts (e.g.
// serve_goodput_qps) never change. The result is positionally aligned
// with names.
func SanitizeMetricNames(names []string) []string {
	sane := make([]string, len(names))
	firstOriginal := make(map[string]string, len(names))
	collides := make(map[string]bool)
	for i, n := range names {
		s := SanitizeMetricName(n)
		sane[i] = s
		if prev, seen := firstOriginal[s]; seen {
			if prev != n {
				collides[s] = true
			}
		} else {
			firstOriginal[s] = n
		}
	}
	for i, n := range names {
		if collides[sane[i]] {
			h := fnv.New32a()
			io.WriteString(h, n)
			sane[i] = fmt.Sprintf("%s_%08x", sane[i], h.Sum32())
		}
	}
	return sane
}

// SanitizeMetricName maps a series name onto the OpenMetrics name charset:
// runs of characters outside [a-zA-Z0-9_:] become single underscores, and
// a leading digit gains one. The mapping is lossy — use
// SanitizeMetricNames when rendering a whole set, which disambiguates
// collisions deterministically.
func SanitizeMetricName(name string) string {
	ok := func(c byte) bool {
		return c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
	}
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if ok(c) {
			b = append(b, c)
			continue
		}
		if len(b) == 0 || b[len(b)-1] != '_' {
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		return "_"
	}
	if b[0] >= '0' && b[0] <= '9' {
		b = append([]byte{'_'}, b...)
	}
	return string(b)
}
