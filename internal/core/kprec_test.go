package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/pp"
)

// runKprec advances a fresh audited conservative-remap model with the given
// kernel precision and returns rank 0's per-field global state plus the
// worst audited residuals — the kernel-precision twin of runWire.
func runKprec(t *testing.T, ranks int, kp pp.Prec, steps int) (fields map[string][]float64, maxHeat, maxFW float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(ranks, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
			WithRemap(RemapCons), WithAudit(true),
			WithKernelPrecision(kp))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < steps; i++ {
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
		}
		st := globalCoupledState(e)
		if c.Rank() == 0 {
			fields = splitCoupledState(e, st)
			s := e.Budget().Summary()
			maxHeat, maxFW = s.MaxHeatResid, s.MaxFWResid
		}
	})
	return fields, maxHeat, maxFW
}

// The gate the mixed-precision kernels ride behind: with the momentum and
// continuity dynamics running their float32 instantiations, the coupled
// conservation audit must stay within the same 1e-10 residual gate as f64,
// at 2, 4, and 8 ranks. This holds because the
// accounting-sensitive kernels are float64 by policy — the ocean pressure
// integral, split correction, and tracer transport, and the atmosphere's
// geopotential integral, continuity, and transport — and flux-form
// transport telescopes exactly for any advecting velocity, however
// quantized.
func TestKernelPrecisionMixedConservationAudit(t *testing.T) {
	const steps = 25 // five audited ocean couplings
	counts := []int{2, 4, 8}
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, ranks := range counts {
		t.Run(fmt.Sprintf("ranks=%d/seq", ranks), func(t *testing.T) {
			_, maxHeat, maxFW := runKprec(t, ranks, pp.PrecMixed, steps)
			if maxHeat > 1e-10 || maxFW > 1e-10 {
				t.Errorf("mixed residuals %.3e/%.3e exceed the 1e-10 gate", maxHeat, maxFW)
			}
		})
	}
}

// The per-field bit-error budget: a mixed-precision run may drift from the
// f64 reference only within a bounded relative envelope of each field's
// dynamic range. Float32 kernel arithmetic rounds at ~6e-8 relative per
// operation and the coupled dynamics amplify it, so the envelope is wider
// than the wire-compression budget (whose error enters only through halo
// overlap state) — but it must stay orders of magnitude below the fields'
// physical variability, or mixed precision would be distorting the answer
// rather than rounding it.
func TestKernelPrecisionMixedStateWithinBudget(t *testing.T) {
	const steps = 25
	ref, refHeat, refFW := runKprec(t, 2, pp.PrecF64, steps)
	if refHeat > 1e-10 || refFW > 1e-10 {
		t.Fatalf("f64 reference residuals %.3e/%.3e exceed the 1e-10 gate", refHeat, refFW)
	}
	got, _, _ := runKprec(t, 2, pp.PrecMixed, steps)
	for _, f := range wireFieldNames {
		a, b := ref[f], got[f]
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", f, len(a), len(b))
		}
		scale := 0.0
		for _, v := range a {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		if scale == 0 {
			scale = 1
		}
		budget := scale * 1e-3
		worst, at := 0.0, -1
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > worst {
				worst, at = d, i
			}
		}
		if worst > budget {
			t.Errorf("%s[%d] drifts %.3e from f64, budget %.3e (scale %.3e)",
				f, at, worst, budget, scale)
		}
	}
}

// The default kernel precision is f64 and must stay bit-for-bit identical
// to a run that never heard of WithKernelPrecision — the zero-value option
// is the historical behaviour, which the golden and rank-invariance tests
// then pin.
func TestKernelPrecisionF64DefaultBitIdentical(t *testing.T) {
	const steps = 15
	explicit, _, _ := runKprec(t, 2, pp.PrecF64, steps)
	byDefault, _, _, _ := runWire(t, 2, par.WireF64, steps)
	for _, f := range wireFieldNames {
		for i := range byDefault[f] {
			if byDefault[f][i] != explicit[f][i] {
				t.Fatalf("%s[%d]: explicit f64 %v differs from default %v",
					f, i, explicit[f][i], byDefault[f][i])
			}
		}
	}
}
