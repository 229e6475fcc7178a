package main

// The harness's own tracer. Spans are recorded around calls into the
// program's layers and kept in memory; they are written out once the
// run ends. A span's self time is its duration minus the part of it
// that its child spans cover.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer records nothing, so untraced
// runs pay only a nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns it; pass it to end when the call
// returns.
func (t *tracer) start(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) time.Duration {
	if t == nil {
		return 0
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent uint64, fn func(id uint64) error) (time.Duration, error) {
	s := t.start(name, parent, 0)
	err := fn(s.ID)
	return t.end(s), err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the union of the
// intervals its children cover, keyed by span ID.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName returns the median self time of the spans with each name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
	}
	out := make(map[string]time.Duration, len(byName))
	for name, xs := range byName {
		out[name] = time.Duration(median(xs))
	}
	return out
}

// writeSpans writes the spans to path as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
