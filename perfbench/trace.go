package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/atmos"
	"repro/internal/obs"
	"repro/internal/pp"
)

// Span names the traced run records from the benchmark's own files: one
// core.step span around every ESM.Step call and one pp.for / pp.reduce span
// around every kernel launch. The program's own atm, ocn and ice spans nest
// between the two.
const (
	spanStep   = "core.step"
	spanFor    = "pp.for"
	spanReduce = "pp.reduce"
)

// timedSpace wraps an execution space so each ParallelFor and
// ParallelReduce becomes one span on the rank's observer, and records
// whether the launch ran physics columns. Launches are issued only from the
// rank's driver goroutine under the sequential schedule, so the list needs
// no lock and its order matches the order the pp spans close in. Launch and
// iteration counts come from pp.Instrument's counters instead.
type timedSpace struct {
	inner   pp.Space
	o       *obs.Obs
	cols    *columnCounter
	physics []bool
}

func (s *timedSpace) Name() string     { return s.inner.Name() }
func (s *timedSpace) Concurrency() int { return s.inner.Concurrency() }

func (s *timedSpace) ParallelFor(n int, f func(i int)) {
	c0 := s.cols.calls.Load()
	sp := s.o.StartSpan(spanFor)
	s.inner.ParallelFor(n, f)
	sp.End()
	s.physics = append(s.physics, s.cols.calls.Load() != c0)
}

func (s *timedSpace) ParallelReduce(n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	c0 := s.cols.calls.Load()
	sp := s.o.StartSpan(spanReduce)
	r := s.inner.ParallelReduce(n, identity, f, join)
	sp.End()
	s.physics = append(s.physics, s.cols.calls.Load() != c0)
	return r
}

// columnCounter wraps the atmosphere's physics suite and counts Column calls
// and their summed busy time. Columns run concurrently on Host workers, so
// it keeps atomics rather than spans.
type columnCounter struct {
	inner  atmos.Suite
	calls  atomic.Int64
	busyNs atomic.Int64
}

func (c *columnCounter) Name() string { return c.inner.Name() }

func (c *columnCounter) Column(in atmos.ColumnIn, dt float64, out *atmos.ColumnOut) {
	t := time.Now()
	c.inner.Column(in, dt, out)
	c.busyNs.Add(int64(time.Since(t)))
	c.calls.Add(1)
}

// span is one closed span of a rank's timeline, in nanoseconds since the
// rank observer's epoch.
type span struct {
	name       string
	start, end int64
	physics    bool // pp launch that ran physics columns
}

func (s span) dur() int64 { return s.end - s.start }

// node is a span with the spans it contains.
type node struct {
	span
	kids []*node
}

// spansFrom converts a rank's sink events into spans, marking the pp spans
// in order with whether each launch ran physics columns.
func spansFrom(events []obs.Event, physics []bool) ([]span, error) {
	var out []span
	k := 0
	for _, ev := range events {
		if ev.Kind != "span" {
			continue
		}
		s := span{name: ev.Name, start: ev.StartNs, end: ev.StartNs + ev.DurNs}
		if ev.Name == spanFor || ev.Name == spanReduce {
			if k >= len(physics) {
				return nil, fmt.Errorf("trace: %d pp spans but %d recorded launches", k+1, len(physics))
			}
			s.physics = physics[k]
			k++
		}
		out = append(out, s)
	}
	if k != len(physics) {
		return nil, fmt.Errorf("trace: %d pp spans but %d recorded launches", k, len(physics))
	}
	return out, nil
}

// buildForest nests spans by interval containment: a span is a child of the
// innermost earlier-starting span whose interval contains it. Spans of one
// rank's driver goroutine nest properly, so containment recovers the call
// tree exactly.
func buildForest(spans []span) []*node {
	s := append([]span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].start != s[j].start {
			return s[i].start < s[j].start
		}
		return s[i].end > s[j].end // the enclosing span first on a tie
	})
	var roots []*node
	var stack []*node
	for _, sp := range s {
		n := &node{span: sp}
		for len(stack) > 0 && stack[len(stack)-1].end < sp.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			p := stack[len(stack)-1]
			p.kids = append(p.kids, n)
		}
		stack = append(stack, n)
	}
	return roots
}

// covered returns the length of the union of the intervals, each clipped to
// [lo, hi]. Overlapping intervals count once.
func covered(lo, hi int64, ivs []span) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := iv.start, iv.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, c := range clipped {
		if open && c[0] <= curB {
			if c[1] > curB {
				curB = c[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = c[0], c[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its children
// cover.
func selfTime(s span, kids []span) int64 { return s.dur() - covered(s.start, s.end, kids) }

// descendants returns every span below n whose name satisfies keep.
func descendants(n *node, keep func(string) bool) []span {
	var out []span
	var walk func(*node)
	walk = func(m *node) {
		for _, k := range m.kids {
			if keep(k.name) {
				out = append(out, k.span)
			}
			walk(k)
		}
	}
	walk(n)
	return out
}

func isLaunch(name string) bool { return name == spanFor || name == spanReduce }
