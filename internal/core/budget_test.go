package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/budget"
	"repro/internal/par"
	"repro/internal/pp"
)

// snapshotState flattens every prognostic and exchanged field of the
// coupled model into one slice — the complete state a health or
// bit-for-bit check inspects.
func snapshotState(e *ESM) []float64 {
	var s []float64
	for _, f := range [][]float64{
		e.Ocn.T, e.Ocn.S, e.Ocn.U, e.Ocn.V, e.Ocn.Eta, e.Ocn.Ubar, e.Ocn.Vbar,
		e.Atm.U, e.Atm.T, e.Atm.Qv, e.Atm.Ps, e.Atm.SST, e.Atm.IceFrac, e.Atm.Precip,
		e.Ice.Conc, e.Ice.Thick,
		e.Lnd.TSoil, e.Lnd.Bucket,
		e.sstGlobal,
	} {
		s = append(s, f...)
	}
	return s
}

// runAudited advances a fresh audited model 50 base steps (10 ocean
// couplings at 25v10) and returns each rank's ledger summary and state
// snapshot.
func runAudited(t *testing.T, ranks int, remap RemapMode) ([]budget.Summary, [][]float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	sums := make([]budget.Summary, ranks)
	snaps := make([][]float64, ranks)
	par.Run(ranks, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
			WithRemap(remap), WithAudit(true))
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
		sums[c.Rank()] = e.Budget().Summary()
		snaps[c.Rank()] = snapshotState(e)
	})
	return sums, snaps
}

// The acceptance gate: under the conservative remap the globally reduced
// heat and freshwater residuals close to round-off (≤ 1e-10 relative) over
// ≥ 10 coupling intervals, on 1 and 2 ranks, and the coupled state stays
// finite with the conservative flux path active. The "/seq" suffix keeps
// the subtest names of earlier releases.
func TestConsBudgetCloses(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d/seq", ranks), func(t *testing.T) {
			sums, snaps := runAudited(t, ranks, RemapCons)
			for rank, s := range sums {
				if s.N < 10 {
					t.Fatalf("rank %d: only %d audited intervals", rank, s.N)
				}
				if s.MaxHeatResid > 1e-10 {
					t.Errorf("rank %d: max heat residual %.3e exceeds 1e-10", rank, s.MaxHeatResid)
				}
				if s.MaxFWResid > 1e-10 {
					t.Errorf("rank %d: max freshwater residual %.3e exceeds 1e-10", rank, s.MaxFWResid)
				}
				// The ledger is identical on every rank by construction:
				// replicated runs pair replicated atm-side terms with
				// allreduced ocn-side terms, and decomposed runs (the
				// multi-rank default) batch both sides' owned-range
				// partials through one allreduce.
				if s != sums[0] {
					t.Errorf("rank %d: summary differs from rank 0", rank)
				}
			}
			for rank, snap := range snaps {
				if len(snap) == 0 {
					t.Fatalf("rank %d: missing snapshot", rank)
				}
				for i, v := range snap {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("rank %d: state[%d] = %v under cons remap", rank, i, v)
					}
				}
			}
		})
	}
}

// Regression pin for the bug this PR fixes: the nearest-neighbour flux path
// leaks — its audited heat residual is systematically nonzero (orders of
// magnitude above round-off), while the conservative path on the same run
// closes. If nn ever closes to round-off, the pin below should be revisited
// (it would mean the flux paths were unified).
func TestNNBudgetLeakPinned(t *testing.T) {
	nn, _ := runAudited(t, 1, RemapNN)
	cons, _ := runAudited(t, 1, RemapCons)
	// Empirically the 25v10 nn leak is ~1e-2 relative for heat and fw; pin
	// two orders below so physics drift doesn't flake the test.
	if nn[0].MaxHeatResid < 1e-4 {
		t.Errorf("nn max heat residual %.3e unexpectedly small — leak gone?", nn[0].MaxHeatResid)
	}
	if nn[0].MaxFWResid < 1e-4 {
		t.Errorf("nn max fw residual %.3e unexpectedly small — leak gone?", nn[0].MaxFWResid)
	}
	if cons[0].MaxHeatResid >= nn[0].MaxHeatResid {
		t.Errorf("cons heat residual %.3e not below nn %.3e",
			cons[0].MaxHeatResid, nn[0].MaxHeatResid)
	}
}

// Unmapped atmosphere cells must be fully routed: flagged as land for the
// atmosphere's surface physics, owned by the land model, and counted by the
// audit — never dropped.
func TestUnmappedCellsRoutedToLand(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithAudit(true))
		if err != nil {
			t.Error(err)
			return
		}
		owned := make(map[int]bool, len(e.Lnd.Cells))
		for _, cell := range e.Lnd.Cells {
			owned[cell] = true
		}
		for _, cell := range e.Rg.Unmapped {
			if !e.Atm.IsLand[cell] {
				t.Errorf("unmapped cell %d not flagged as land", cell)
			}
			if !owned[cell] {
				t.Errorf("unmapped cell %d not adopted by the land model", cell)
			}
		}
		for i := 0; i < 5; i++ {
			e.Step()
		}
		ivs := e.Budget().Intervals()
		if len(ivs) == 0 {
			t.Fatal("no audited intervals")
		}
		if got, want := ivs[0].UnmappedCells, len(e.Rg.Unmapped); got != want {
			t.Errorf("audited unmapped count %d, want %d", got, want)
		}
	})
}
