package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// options collects the assembly parameters behind NewWithOptions.
type options struct {
	start, stop time.Time
	sp          pp.Space
	obs         obs.Observer
	remap       RemapMode
	audit       bool
	atmDecomp   bool
	ocnDecomp   bool
	wire        par.WireFormat
	kprec       pp.Prec
}

// Option configures model assembly.
type Option func(*options)

// WithInterval sets the simulated interval [start, stop).
func WithInterval(start, stop time.Time) Option {
	return func(o *options) { o.start, o.stop = start, stop }
}

// WithSpace selects the execution space the components run their kernels
// on; nil selects Serial.
func WithSpace(sp pp.Space) Option {
	return func(o *options) { o.sp = sp }
}

// WithObserver attaches an observability handle: component steps become
// spans on it, the communicator's traffic counters feed it, and the
// execution space is wrapped with launch accounting. Pass obs.Nop{} to
// disable instrumentation entirely; by default the model accumulates
// timings in memory (no sink), preserving the classic TimingReport.
func WithObserver(o obs.Observer) Option {
	return func(opt *options) { opt.obs = o }
}

// WithRemap selects the air–sea flux remap mode: RemapNN (default, the
// historical nearest-neighbour delivery) or RemapCons (first-order
// conservative overlap weights, closing the coupled heat and freshwater
// budgets to round-off).
func WithRemap(m RemapMode) Option {
	return func(opt *options) { opt.remap = m }
}

// WithAudit enables the conservation-audit ledger: every ocean coupling
// interval tallies the globally reduced interface and storage terms and
// streams them through the observer's budget.* gauges; Budget() returns the
// ledger for reports. Off by default — the audit adds one small collective
// per coupling interval.
func WithAudit(on bool) Option {
	return func(opt *options) { opt.audit = on }
}

// WithAtmDecomp selects whether the atmosphere + land are domain-decomposed
// across the communicator (the default) or computed redundantly on every
// rank (the historical replicated dataflow, kept as the 1-rank degenerate
// case and for A/B measurement). Decomposition partitions the icosahedral
// cells into compact patches by recursive coordinate bisection, keeps a one-ring halo current through
// point-to-point exchanges, and routes the atm→ocn coupling through the
// offline-scheduled rearranger; the prognostic state is bit-for-bit
// identical to the replicated dataflow at any rank count.
func WithAtmDecomp(on bool) Option {
	return func(opt *options) { opt.atmDecomp = on }
}

// WithOcnDecomp selects whether the ocean + sea ice are domain-decomposed
// across the communicator (the default) or replicated on every rank (the
// no-decomposition scaling baseline, mirroring WithAtmDecomp(false)).
// Decomposition partitions the tripolar grid into uniform 2D blocks —
// eliminating all-land blocks from the layout — and keeps a one-ring halo
// current through batched point-to-point exchanges; the prognostic state is
// bit-for-bit identical to the replicated dataflow at any rank count. The
// replicated ocean cannot be combined with the decomposed atmosphere at
// multi-rank (the coupling routers address ocean columns by owner).
func WithOcnDecomp(on bool) Option {
	return func(opt *options) { opt.ocnDecomp = on }
}

// WithWireCompression selects the wire format of the hot communication
// paths — both halo exchanges and the coupler rearranger's point-to-point
// path. par.WireF64 (default) ships raw float64 payloads, bit-for-bit
// identical to all prior behaviour; par.WireGS32 ships group-scaled FP32
// encodings (≈ 1.94× smaller), accepted because the conservation audit
// stays within its 1e-10 gate: halo quantization perturbs only redundantly
// recomputed overlap state, and the conservative flux rearranger is exempt
// — flux deliveries participating in the conservation identity always
// travel f64, whatever this option says.
func WithWireCompression(w par.WireFormat) Option {
	return func(opt *options) { opt.wire = w }
}

// WithKernelPrecision selects the precision the registered hot kernels run
// at. pp.PrecF64 (default) is bit-for-bit identical to all prior behaviour.
// pp.PrecMixed wraps the execution space in pp.Vec: the same kernel bodies
// run their float32 instantiations with unrolled inner loops, while
// accumulations, pressure integrals, and flux sums stay float64 — accepted
// because the conservation audit stays within its 1e-10 gate and the
// per-field error is bounded by the kernel-precision budget test. Distinct
// from the precision.Mixed state-quantization policy, which composes with
// either setting.
func WithKernelPrecision(p pp.Prec) Option {
	return func(opt *options) { opt.kprec = p }
}

// defaultOptions mirrors the quickstart setup: one simulated day from the
// repository's reference start date, Serial space, in-memory observer.
func defaultOptions() options {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	return options{
		start:     start,
		stop:      start.Add(24 * time.Hour),
		sp:        pp.Serial{},
		atmDecomp: true,
		ocnDecomp: true,
	}
}

// NewWithOptions assembles the coupled model over the communicator with
// functional options — the redesigned entry point; New remains as a
// positional wrapper so call sites migrate incrementally.
func NewWithOptions(cfg Config, c *par.Comm, opts ...Option) (*ESM, error) {
	opt := defaultOptions()
	for _, apply := range opts {
		apply(&opt)
	}
	if opt.sp == nil {
		opt.sp = pp.Serial{}
	}
	if opt.obs == nil {
		opt.obs = obs.New(c.Rank(), nil)
	}
	return assemble(cfg, c, opt)
}
