package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// globalCoupledState assembles the rank-count-independent coupled state into
// one flat global image: atmosphere Ps/T/Qv/U/SST plus the land stores.
// Replicated, the local arrays already are that image; decomposed, each rank
// contributes exactly its owned cells, edges, and land slots to a zeroed
// buffer and a sum-allreduce places every value once (the owned sets
// partition their index spaces), so the result is bit-exact, not averaged.
func globalCoupledState(e *ESM) []float64 {
	m := e.Atm
	nc, ne, nl := m.Mesh.NCells(), m.Mesh.NEdges(), m.NLev
	nT := len(e.Lnd.TSoil)
	oPs := 0
	oT := oPs + nc
	oQv := oT + nl*nc
	oU := oQv + nl*nc
	oSST := oU + nl*ne
	oTS := oSST + nc
	oBk := oTS + nT
	buf := make([]float64, oBk+nT)
	if e.dec == nil {
		copy(buf[oPs:], m.Ps)
		copy(buf[oT:], m.T)
		copy(buf[oQv:], m.Qv)
		copy(buf[oU:], m.U)
		copy(buf[oSST:], m.SST)
		copy(buf[oTS:], e.Lnd.TSoil)
		copy(buf[oBk:], e.Lnd.Bucket)
		return buf
	}
	d := e.dec
	for _, r := range d.OwnedRanges() {
		for c := r[0]; c < r[0]+r[1]; c++ {
			buf[oPs+c] = m.Ps[c]
			buf[oSST+c] = m.SST[c]
			for k := 0; k < nl; k++ {
				buf[oT+k*nc+c] = m.T[k*nc+c]
				buf[oQv+k*nc+c] = m.Qv[k*nc+c]
			}
		}
	}
	for _, eg := range d.(grid.EdgeDecomp).OwnedEdgeList() {
		for k := 0; k < nl; k++ {
			buf[oU+k*ne+eg] = m.U[k*ne+eg]
		}
	}
	for _, slot := range e.ownSlots {
		buf[oTS+slot] = e.Lnd.TSoil[slot]
		buf[oBk+slot] = e.Lnd.Bucket[slot]
	}
	return e.Comm.AllreduceSlice(buf, par.OpSum)
}

// runDecomp advances a fresh audited conservative-remap model and returns
// the assembled global state, rank 0's gathered sea-surface height, and the
// worst audited residuals.
func runDecomp(t *testing.T, ranks int, decomp bool, steps int) (state, eta []float64, maxHeat, maxFW float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(ranks, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
			WithRemap(RemapCons), WithAudit(true),
			WithAtmDecomp(decomp))
		if err != nil {
			t.Error(err)
			return
		}
		if decomp && ranks > 1 && e.dec == nil {
			t.Error("decomposition requested but not active")
			return
		}
		if (!decomp || ranks == 1) && e.dec != nil {
			t.Error("decomposition active but not requested")
			return
		}
		for i := 0; i < steps; i++ {
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
		}
		st := globalCoupledState(e)
		out := e.Ocn.GatherSurface(e.Ocn.Eta)
		if c.Rank() == 0 {
			state, eta = st, out
			s := e.Budget().Summary()
			maxHeat, maxFW = s.MaxHeatResid, s.MaxFWResid
		}
	})
	return state, eta, maxHeat, maxFW
}

// The tentpole acceptance test: the decomposed atmosphere + land, the 2D
// block-decomposed ocean + ice, and the distributed conservative coupling
// path reproduce the 1-rank replicated run bit-for-bit at 2, 4, 8, and 16
// ranks while the conservation audit stays gate-clean at every rank count.
// The "/seq" subtest suffix keeps the names of earlier releases.
func TestDecompRankCountInvariance(t *testing.T) {
	const steps = 25 // five audited ocean couplings
	refState, refEta, refHeat, refFW := runDecomp(t, 1, true, steps)
	if refHeat > 1e-10 || refFW > 1e-10 {
		t.Fatalf("1-rank residuals %.3e/%.3e exceed the 1e-10 gate", refHeat, refFW)
	}
	counts := []int{2, 4, 8, 16}
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, ranks := range counts {
		t.Run(fmt.Sprintf("ranks=%d/seq", ranks), func(t *testing.T) {
			state, eta, maxHeat, maxFW := runDecomp(t, ranks, true, steps)
			if maxHeat > 1e-10 || maxFW > 1e-10 {
				t.Errorf("residuals %.3e/%.3e exceed the 1e-10 gate", maxHeat, maxFW)
			}
			if len(state) != len(refState) {
				t.Fatalf("state sizes differ: %d vs %d", len(state), len(refState))
			}
			for i := range state {
				if state[i] != refState[i] {
					t.Fatalf("state[%d] = %v, 1-rank reference %v", i, state[i], refState[i])
				}
			}
			for i := range eta {
				if eta[i] != refEta[i] {
					t.Fatalf("eta[%d] = %v, 1-rank reference %v", i, eta[i], refEta[i])
				}
			}
		})
	}
}

// WithAtmDecomp(false) keeps the historical replicated dataflow — and it
// must agree bit-for-bit with the decomposed dataflow at the same rank
// count, the A/B the bench harness relies on.
func TestDecompMatchesReplicatedSameRanks(t *testing.T) {
	const steps = 15
	repState, repEta, _, _ := runDecomp(t, 2, false, steps)
	decState, decEta, _, _ := runDecomp(t, 2, true, steps)
	for i := range decState {
		if decState[i] != repState[i] {
			t.Fatalf("state[%d]: decomposed %v vs replicated %v", i, decState[i], repState[i])
		}
	}
	for i := range decEta {
		if decEta[i] != repEta[i] {
			t.Fatalf("eta[%d]: decomposed %v vs replicated %v", i, decEta[i], repEta[i])
		}
	}
}

// A decomposed run checkpoints through per-rank owned chunks; the restored
// run — on the same rank count or on a single replicated rank — must
// continue bit-for-bit. (The converse direction, a replicated checkpoint
// restored onto a decomposed run, is pinned by TestRestartAcrossRankCounts.)
func TestDecompRestartRoundTrip(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const stepsA, stepsB = 10, 8

	var ref []float64
	par.Run(2, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < stepsA; i++ {
			e.Step()
		}
		if err := e.WriteRestart(dir, 2); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < stepsB; i++ {
			e.Step()
		}
		st := globalCoupledState(e)
		if c.Rank() == 0 {
			ref = st
		}
	})
	if ref == nil {
		t.Fatal("no reference state")
	}

	check := func(name string, ranks int) {
		var got []float64
		par.Run(ranks, func(c *par.Comm) {
			e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)))
			if err != nil {
				t.Error(err)
				return
			}
			if err := e.ReadRestart(dir, 2); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < stepsB; i++ {
				e.Step()
			}
			st := globalCoupledState(e)
			if c.Rank() == 0 {
				got = st
			}
		})
		if got == nil {
			t.Fatalf("%s: no state", name)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: state[%d] = %v, want %v", name, i, got[i], ref[i])
			}
		}
	}
	check("same-rank-count resume", 2)
	check("replicated resume of decomposed checkpoint", 1)
}

// The distributed coupling hot path — pack, icos rearrange, consume — must
// be allocation-free in steady state, in both remap modes. Rank 0 measures
// while the peer drives the matching collectives the same number of times.
func TestDistributedImportZeroAllocs(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	for _, remap := range []RemapMode{RemapNN, RemapCons} {
		t.Run(remap.String(), func(t *testing.T) {
			const runs = 20
			par.Run(2, func(c *par.Comm) {
				e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(remap))
				if err != nil {
					t.Error(err)
					return
				}
				// Steady state: grow every router pack buffer first.
				for i := 0; i < 3; i++ {
					e.oceanImport()
				}
				c.Barrier()
				if c.Rank() == 0 {
					if allocs := testing.AllocsPerRun(runs, func() {
						e.oceanImport()
					}); allocs != 0 {
						t.Errorf("%v import: %v allocs/op in steady state, want 0", remap, allocs)
					}
				} else {
					for i := 0; i < runs+1; i++ {
						e.oceanImport()
					}
				}
				c.Barrier()
			})
		})
	}
}
