package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Start and End are nanoseconds
// since the tracer was created; Parent is the ID of the span that caused
// this one (0 for a root); Trace is shared by every span of one job.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced job in memory. A nil *tracer is the
// untraced mode: every method returns at once, so call sites need no guard.
// Safe for concurrent use (compile spans end on evaluation-pool goroutines).
type tracer struct {
	mu    sync.Mutex
	id    string
	t0    time.Time
	spans []span
}

func newTracer(id string) *tracer { return &tracer{id: id, t0: time.Now()} }

// start opens a span and returns its ID (0 when tracing is off).
func (t *tracer) start(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: t.id, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span opened by start.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the spans with the given name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// busy is the summed duration of spans, in nanoseconds.
func busy(spans []span) int64 {
	var n int64
	for _, s := range spans {
		n += s.dur()
	}
	return n
}

// coverage is the length of the union of the spans' intervals clipped to
// [lo, hi], in nanoseconds: overlapping spans count once.
func coverage(spans []span, lo, hi int64) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// elapsed is the union of the spans' intervals, in nanoseconds.
func elapsed(spans []span) int64 {
	return coverage(spans, math.MinInt64, math.MaxInt64)
}

// selfTime is s's duration minus the part of it its direct children cover.
func selfTime(s span, all []span) int64 {
	var kids []span
	for _, c := range all {
		if c.Parent == s.ID {
			kids = append(kids, c)
		}
	}
	return s.dur() - coverage(kids, s.Start, s.End)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle sample of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durationsMS converts span durations to milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}
