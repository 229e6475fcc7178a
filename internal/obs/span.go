package obs

// Hierarchical spans in the Dapper style: a Tracer collects a tree of
// timed spans, parented through context.Context, so one experiment run
// unfolds into modeldata.run → experiment.E1 → mcdb.instantiate_bundled
// → parallel.for → parallel.iter without any layer knowing about the
// layers above it. Span timestamps come from the Tracer's injectable
// Clock; tracing is strictly observational and a traced run is
// bit-identical to an untraced one.

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Tracer collects spans for one process or run. All methods are safe
// for concurrent use; a nil *Tracer disables tracing (Start returns a
// nil span).
type Tracer struct {
	clock Clock

	mu sync.Mutex
	// bounded by the scrape cycle: /debug/trace swaps in a fresh Tracer
	// and drops this one, so spans accumulate only between scrapes
	spans  []*Span // guarded by mu
	nextID uint64  // guarded by mu
}

// NewTracer returns a Tracer timed by the wall clock.
func NewTracer() *Tracer { return NewTracerClock(Wall) }

// NewTracerClock returns a Tracer timed by c (tests inject a
// ManualClock so traces are deterministic).
func NewTracerClock(c Clock) *Tracer {
	if c == nil {
		c = Wall
	}
	return &Tracer{clock: c}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation in the trace tree. Create spans with
// Start; a nil *Span absorbs every call, so instrumentation sites never
// check whether tracing is on.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64 // 0 for root spans
	name   string
	start  time.Time

	mu  sync.Mutex
	end time.Time // guarded by mu; zero until End
	// bounded by the instrumentation sites: each span gets a fixed
	// handful of SetAttr calls, never per-iteration appends
	attrs []Attr // guarded by mu
}

// start registers a new span. parent 0 makes a root span.
func (t *Tracer) start(name string, parent uint64) *Span {
	now := t.clock.Now()
	t.mu.Lock()
	t.nextID++
	sp := &Span{tr: t, id: t.nextID, parent: parent, name: name, start: now}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// WithTracer returns a context whose Start calls record spans into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, tr)
}

// TracerFrom returns the tracer installed on ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// Enabled reports whether ctx carries a tracer — a cheap guard for hot
// loops that want to skip per-iteration Start calls entirely when
// tracing is off.
func Enabled(ctx context.Context) bool { return TracerFrom(ctx) != nil }

// Start begins a span named name, parented under the span already on
// ctx (if any), and returns a context carrying the new span for child
// calls. Without a tracer on ctx it returns (ctx, nil) and costs two
// context lookups. Always End the returned span; End is nil-safe:
//
//	ctx, sp := obs.Start(ctx, "mcdb.exec")
//	defer sp.End()
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	var parent uint64
	if ps, ok := ctx.Value(spanKey).(*Span); ok {
		parent = ps.id
	}
	sp := tr.start(name, parent)
	return context.WithValue(ctx, spanKey, sp), sp
}

// End marks the span finished at the tracer clock's current time.
// Idempotent: only the first End sticks.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.clock.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a key/value pair.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value. On a nil span
// (tracing off) it formats nothing.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SpanInfo is an immutable copy of one span, for inspection and export.
type SpanInfo struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Start  time.Time
	End    time.Time // equals Start when the span never ended
	Attrs  []Attr
}

// Duration returns the span's recorded extent.
func (si SpanInfo) Duration() time.Duration { return si.End.Sub(si.Start) }

// Snapshot copies every recorded span in creation order. Spans still
// running are reported with End = Start.
func (t *Tracer) Snapshot() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanInfo, len(spans))
	for i, sp := range spans {
		sp.mu.Lock()
		end := sp.end
		attrs := append([]Attr(nil), sp.attrs...)
		sp.mu.Unlock()
		if end.IsZero() {
			end = sp.start
		}
		out[i] = SpanInfo{
			ID:     sp.id,
			Parent: sp.parent,
			Name:   sp.name,
			Start:  sp.start,
			End:    end,
			Attrs:  attrs,
		}
	}
	return out
}

// MaxDepth returns the deepest parent chain over the recorded spans
// (a lone root span has depth 1); 0 when no spans were recorded.
func (t *Tracer) MaxDepth() int {
	spans := t.Snapshot()
	depth := make(map[uint64]int, len(spans))
	max := 0
	// Spans are recorded in creation order, so a parent always precedes
	// its children and one pass suffices.
	for _, sp := range spans {
		d := depth[sp.Parent] + 1
		depth[sp.ID] = d
		if d > max {
			max = d
		}
	}
	return max
}
