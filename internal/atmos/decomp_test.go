package atmos

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
)

// TestDecomposedMatchesReplicated pins the tentpole equivalence at the
// component level: a decomposed atmosphere stepped on 2 and 4 ranks produces
// bit-for-bit the serial answer on every owned cell and edge, across enough
// model steps to cover several tracer and physics firings.
func TestDecomposedMatchesReplicated(t *testing.T) {
	const level, nlev, modelSteps = 2, 6, 3
	cfg := DefaultConfig()

	ref, err := New(level, nlev, cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < modelSteps; i++ {
		ref.StepModel()
	}

	for _, ranks := range []int{2, 4} {
		par.Run(ranks, func(c *par.Comm) {
			m, err := New(level, nlev, cfg, nil)
			if err != nil {
				t.Errorf("New: %v", err)
				return
			}
			d, err := grid.NewIcosDecomp(m.Mesh, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			m.SetDecomp(d)
			for i := 0; i < modelSteps; i++ {
				m.StepModel()
			}
			nc, ne := m.Mesh.NCells(), m.Mesh.NEdges()
			for _, c2 := range d.Owned {
				if m.Ps[c2] != ref.Ps[c2] {
					t.Errorf("ranks=%d rank %d: Ps[%d] = %v, want %v", ranks, c.Rank(), c2, m.Ps[c2], ref.Ps[c2])
					return
				}
				for k := 0; k < nlev; k++ {
					i := k*nc + c2
					if m.T[i] != ref.T[i] || m.Qv[i] != ref.Qv[i] {
						t.Errorf("ranks=%d rank %d: T/Qv mismatch at cell %d lev %d", ranks, c.Rank(), c2, k)
						return
					}
				}
				for _, f := range [][2][]float64{
					{m.Precip, ref.Precip}, {m.TauX, ref.TauX}, {m.TauY, ref.TauY},
					{m.SHF, ref.SHF}, {m.LHF, ref.LHF}, {m.GSW, ref.GSW}, {m.GLW, ref.GLW},
				} {
					if f[0][c2] != f[1][c2] {
						t.Errorf("ranks=%d rank %d: physics export mismatch at cell %d", ranks, c.Rank(), c2)
						return
					}
				}
			}
			for _, e := range d.OwnEdges {
				for k := 0; k < nlev; k++ {
					if m.U[k*ne+e] != ref.U[k*ne+e] {
						t.Errorf("ranks=%d rank %d: U[%d] lev %d = %v, want %v", ranks, c.Rank(), e, k, m.U[k*ne+e], ref.U[k*ne+e])
						return
					}
				}
			}
			// The halo must mirror its owners bit-for-bit too — that is what
			// makes the redundant physics columns safe.
			for _, h := range d.HaloCells {
				if m.Ps[h] != ref.Ps[h] {
					t.Errorf("ranks=%d rank %d: halo Ps[%d] = %v, want %v", ranks, c.Rank(), h, m.Ps[h], ref.Ps[h])
					return
				}
			}
		})
	}
}
