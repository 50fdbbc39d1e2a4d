package sim

import "repro/internal/obs"

// Span is a lightweight in-progress trace interval. StartSpan returns the
// zero (inactive) Span when no sink is installed, so the disabled path is a
// single nil check with no allocation and no timestamp capture; emission
// costs — string formatting above all — are only paid when Active reports
// true. Span is a value: store it in a struct field or a local, never share
// it across handlers.
type Span struct {
	eng   *Engine
	start Time
}

// StartSpan opens a span at the current simulated time, or returns an
// inactive span when tracing is disabled.
func (e *Engine) StartSpan() Span {
	if e.sink == nil {
		return Span{}
	}
	return Span{eng: e, start: e.now}
}

// Active reports whether ending the span will emit anything. Callers that
// format names or details should guard that work with Active; callers
// passing only static strings may End unguarded.
func (s Span) Active() bool { return s.eng != nil }

// End emits the completed interval [start, now] as a KindSpan trace event
// on the given node and category track. No-op on an inactive span.
func (s Span) End(node int, category, name string, qid int64, detail string) {
	if s.eng == nil {
		return
	}
	s.eng.sink.Emit(obs.TraceEvent{
		T: int64(s.start), Dur: int64(s.eng.now - s.start),
		Node: node, Kind: obs.KindSpan, Category: category,
		Name: name, QueryID: qid, Detail: detail,
	})
}
