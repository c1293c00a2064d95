// Package obs is the unified observability layer of the reproduction: one
// instrumentation API feeding the per-component timers (§6.2's GPTL role),
// the communication-pattern counters (§5.2.4), and the performance
// trajectory the benchmark tooling records.
//
// The package provides four pieces:
//
//   - a metrics registry — counters, gauges, and histograms with atomic
//     hot-path increments;
//   - lightweight trace spans with parent/child nesting and per-rank
//     timelines;
//   - pluggable sinks — in-memory (tests), JSONL event log, and
//     Prometheus-style text exposition;
//   - a rank-reduction step (Reduce) taking max/sum across ranks,
//     preserving the paper's max-wall convention.
//
// Every consumer package (core, par, pp, coupler, pario) declares the small
// structural subset of Observer it needs, so only core and the command
// binaries import obs directly; *Obs satisfies all of them.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Observer is the redesigned instrumentation API consumed across the stack.
// *Obs is the live implementation; Nop is the disabled one (near-zero
// overhead: every method is an empty shell).
type Observer interface {
	// StartSpan opens a trace span nested under the caller's current span.
	// The returned span may be nil (Nop); Span.End is nil-safe.
	StartSpan(name string) *Span
	// AddCount adds delta to the named counter.
	AddCount(name string, delta int64)
	// SetGauge stores v as the named gauge's value.
	SetGauge(name string, v float64)
	// ObserveValue records one sample into the named histogram.
	ObserveValue(name string, v float64)
	// Section returns a section's accumulated span wall time and call count.
	Section(name string) (time.Duration, int)
	// SectionNames returns the sections seen so far, sorted.
	SectionNames() []string
	// Snapshot returns every section and metric as a Point.
	Snapshot() []Point
}

// section accumulates closed spans by name — the getTiming accumulation the
// core timing report reduces across ranks.
type section struct {
	total time.Duration
	calls int
}

// Obs is one rank's observability handle: a registry, a span stack, and an
// optional shared sink. All methods are safe for concurrent use, but spans
// nest per Obs, so each rank (goroutine) owns its own Obs, mirroring how
// GPTL keeps per-process timer trees.
type Obs struct {
	rank  int
	epoch time.Time
	sink  Sink
	reg   *Registry

	mu       sync.Mutex
	sections map[string]*section
	cur      *Span
}

// New creates a rank's observer. sink may be nil (accumulate only, emit
// nothing) or shared by all ranks of a run.
func New(rank int, sink Sink) *Obs {
	o := &Obs{
		rank:     rank,
		epoch:    time.Now(),
		sink:     sink,
		reg:      NewRegistry(),
		sections: make(map[string]*section),
	}
	if sink != nil {
		sink.Attach(o)
	}
	return o
}

// Rank returns the rank this observer instruments.
func (o *Obs) Rank() int { return o.rank }

// Registry exposes the rank's metric registry for direct handle caching on
// hot paths.
func (o *Obs) Registry() *Registry { return o.reg }

// StartSpan implements Observer: it opens a span nested under the current
// one and makes it current.
func (o *Obs) StartSpan(name string) *Span {
	o.mu.Lock()
	parent := o.cur
	path := name
	if parent != nil {
		path = parent.path + "/" + name
	}
	s := &Span{o: o, name: name, path: path, parent: parent, start: time.Now()}
	o.cur = s
	o.mu.Unlock()
	return s
}

// AddCount implements Observer.
func (o *Obs) AddCount(name string, delta int64) { o.reg.Counter(name).Add(delta) }

// SetGauge implements Observer.
func (o *Obs) SetGauge(name string, v float64) { o.reg.Gauge(name).Set(v) }

// ObserveValue implements Observer.
func (o *Obs) ObserveValue(name string, v float64) { o.reg.Histogram(name).Observe(v) }

// Section implements Observer.
func (o *Obs) Section(name string) (time.Duration, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.sections[name]
	if s == nil {
		return 0, 0
	}
	return s.total, s.calls
}

// SectionNames implements Observer.
func (o *Obs) SectionNames() []string {
	o.mu.Lock()
	names := make([]string, 0, len(o.sections))
	for n := range o.sections {
		names = append(names, n)
	}
	o.mu.Unlock()
	sort.Strings(names)
	return names
}

// Snapshot implements Observer: sections first (sorted by name), then the
// registry's metrics.
func (o *Obs) Snapshot() []Point {
	o.mu.Lock()
	secs := make([]Point, 0, len(o.sections))
	for n, s := range o.sections {
		secs = append(secs, Point{Name: n, Kind: KindSection, Value: s.total.Seconds(), Count: int64(s.calls)})
	}
	o.mu.Unlock()
	sort.Slice(secs, func(i, j int) bool { return secs[i].Name < secs[j].Name })
	return append(secs, o.reg.Snapshot()...)
}

// FlushMetrics emits every section and metric to the sink as one event
// apiece — the end-of-run dump that lands counters next to the span
// timeline in a JSONL log.
func (o *Obs) FlushMetrics() {
	if o.sink == nil {
		return
	}
	for _, p := range o.Snapshot() {
		o.sink.Emit(Event{Kind: p.Kind.String(), Rank: o.rank, Name: p.Name, Value: p.Value, Count: p.Count})
	}
}

// Nop is the disabled observer: every method is an empty shell, so an
// instrumented call site costs one interface dispatch and nothing else.
type Nop struct{}

// StartSpan implements Observer; the nil span's End is a no-op.
func (Nop) StartSpan(string) *Span { return nil }

// AddCount implements Observer.
func (Nop) AddCount(string, int64) {}

// SetGauge implements Observer.
func (Nop) SetGauge(string, float64) {}

// ObserveValue implements Observer.
func (Nop) ObserveValue(string, float64) {}

// Section implements Observer.
func (Nop) Section(string) (time.Duration, int) { return 0, 0 }

// SectionNames implements Observer.
func (Nop) SectionNames() []string { return nil }

// Snapshot implements Observer.
func (Nop) Snapshot() []Point { return nil }
