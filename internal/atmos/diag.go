package atmos

import (
	"math"

	"repro/internal/grid"
)

// TotalMass returns the global atmospheric mass (kg), conserved exactly by
// the flux-form continuity equation.
func (m *Model) TotalMass() float64 {
	re2 := grid.EarthRadius * grid.EarthRadius
	var sum float64
	for c := 0; c < m.Mesh.NCells(); c++ {
		sum += m.Ps[c] / Gravity * m.Mesh.AreaCell[c] * re2
	}
	return sum
}

// TotalMoisture returns the global water-vapour mass (kg), changed only by
// evaporation and precipitation.
func (m *Model) TotalMoisture() float64 {
	nc := m.Mesh.NCells()
	re2 := grid.EarthRadius * grid.EarthRadius
	var sum float64
	for c := 0; c < nc; c++ {
		colMass := m.Ps[c] / Gravity * m.Mesh.AreaCell[c] * re2
		for k := 0; k < m.NLev; k++ {
			sum += m.Qv[k*nc+c] * colMass * m.DSig[k]
		}
	}
	return sum
}

// MassWeightedTheta returns the global integral of potential temperature
// times mass, the quantity the tracer transport conserves between physics
// calls.
func (m *Model) MassWeightedTheta() float64 {
	nc := m.Mesh.NCells()
	re2 := grid.EarthRadius * grid.EarthRadius
	var sum float64
	for c := 0; c < nc; c++ {
		colMass := m.Ps[c] / Gravity * m.Mesh.AreaCell[c] * re2
		for k := 0; k < m.NLev; k++ {
			theta := m.T[k*nc+c] * math.Pow(P0/(m.Sig[k]*m.Ps[c]), Kappa)
			sum += theta * colMass * m.DSig[k]
		}
	}
	return sum
}

// MaxWind returns the largest reconstructed wind speed at any cell on any
// level (m/s) — the stability canary.
func (m *Model) MaxWind() float64 {
	nc, ne := m.Mesh.NCells(), m.Mesh.NEdges()
	var worst float64
	for k := 0; k < m.NLev; k++ {
		uLvl := m.U[k*ne : (k+1)*ne]
		for c := 0; c < nc; c++ {
			u, v := m.recon.CellUV(uLvl, c)
			if s := math.Hypot(u, v); s > worst {
				worst = s
			}
		}
	}
	return worst
}

// Wind10m returns the lowest-level zonal and meridional wind at every cell,
// the paper's 10 m wind diagnostic (Fig 6a/6b).
func (m *Model) Wind10m() (u, v []float64) {
	nc := m.Mesh.NCells()
	u = make([]float64, nc)
	v = make([]float64, nc)
	m.Wind10mInto(u, v)
	return u, v
}

// Wind10mInto fills caller-owned buffers with the lowest-level wind — the
// allocation-free form the coupler's hot path uses. Decomposed, it fills the
// extended patch (owned + halo), the cells whose edges are locally valid;
// everything the surface-flux and coupling loops read lies inside it.
func (m *Model) Wind10mInto(u, v []float64) {
	ne := m.Mesh.NEdges()
	kb := m.NLev - 1
	uLvl := m.U[kb*ne : (kb+1)*ne]
	fill := func(c int) { u[c], v[c] = m.recon.CellUV(uLvl, c) }
	if m.dec == nil {
		for c := 0; c < m.Mesh.NCells(); c++ {
			fill(c)
		}
		return
	}
	for _, c := range m.dec.ExtCells {
		fill(c)
	}
}

// MaxWindLocal returns the largest reconstructed wind speed over this rank's
// owned cells (all cells when replicated). Owned regions partition the mesh,
// so a max-allreduce of the local values reproduces MaxWind exactly.
func (m *Model) MaxWindLocal() float64 {
	ne := m.Mesh.NEdges()
	var worst float64
	scan := func(c int) {
		for k := 0; k < m.NLev; k++ {
			uLvl := m.U[k*ne : (k+1)*ne]
			u, v := m.recon.CellUV(uLvl, c)
			if s := math.Hypot(u, v); s > worst {
				worst = s
			}
		}
	}
	m.forOwned(scan)
	return worst
}

// forOwned calls f on this rank's owned cells in ascending order (every
// cell when replicated).
func (m *Model) forOwned(f func(c int)) {
	if m.dec == nil {
		for c := 0; c < m.Mesh.NCells(); c++ {
			f(c)
		}
		return
	}
	for _, c := range m.dec.Owned {
		f(c)
	}
}

// TotalMoistureLocal returns the water-vapour mass over this rank's owned
// cells; summed across ranks it equals TotalMoisture on a replicated run.
func (m *Model) TotalMoistureLocal() float64 {
	nc := m.Mesh.NCells()
	re2 := grid.EarthRadius * grid.EarthRadius
	var sum float64
	m.forOwned(func(c int) {
		colMass := m.Ps[c] / Gravity * m.Mesh.AreaCell[c] * re2
		for k := 0; k < m.NLev; k++ {
			sum += m.Qv[k*nc+c] * colMass * m.DSig[k]
		}
	})
	return sum
}

// SurfaceVorticity returns the lowest-level relative vorticity interpolated
// to cells (1/s), used by the storm tracker.
func (m *Model) SurfaceVorticity() []float64 {
	mesh := m.Mesh
	nc, ne, nv := mesh.NCells(), mesh.NEdges(), mesh.NVertices()
	kb := m.NLev - 1
	uLvl := m.U[kb*ne : (kb+1)*ne]
	re := grid.EarthRadius

	vortV := make([]float64, nv)
	for v := 0; v < nv; v++ {
		var circ float64
		for j := 0; j < 3; j++ {
			e := mesh.EdgesOnVertex[v][j]
			circ += float64(mesh.EdgeSignOnVtx[v][j]) * uLvl[e] * mesh.Dc[e] * re
		}
		vortV[v] = circ / (mesh.AreaDual[v] * re * re)
	}
	out := make([]float64, nc)
	cnt := make([]int, nc)
	for v := 0; v < nv; v++ {
		for _, c := range mesh.CellsOnVertex[v] {
			out[c] += vortV[v]
			cnt[c]++
		}
	}
	for c := 0; c < nc; c++ {
		if cnt[c] > 0 {
			out[c] /= float64(cnt[c])
		}
	}
	return out
}

// MinPs returns the lowest surface pressure and the cell holding it — the
// storm-center diagnostic.
func (m *Model) MinPs() (float64, int) {
	best, at := math.Inf(1), -1
	for c, p := range m.Ps {
		if p < best {
			best, at = p, c
		}
	}
	return best, at
}

// MinPsLocal returns the lowest surface pressure over this rank's owned
// cells (all cells when replicated). Owned cells partition the mesh, so a
// min-allreduce of the local values reproduces MinPs.
func (m *Model) MinPsLocal() float64 {
	best := math.Inf(1)
	m.forOwned(func(c int) {
		if m.Ps[c] < best {
			best = m.Ps[c]
		}
	})
	return best
}

// GlobalPrecipRate returns the area-weighted mean precipitation rate
// (kg/m²/s ≈ mm/s).
func (m *Model) GlobalPrecipRate() float64 {
	var num, den float64
	for c := 0; c < m.Mesh.NCells(); c++ {
		num += m.Precip[c] * m.Mesh.AreaCell[c]
		den += m.Mesh.AreaCell[c]
	}
	return num / den
}

// TotalCloudProxy returns a 0–1 cloud-fraction-like field from column
// moisture, the Fig 1b visualization quantity.
func (m *Model) TotalCloudProxy() []float64 {
	nc := m.Mesh.NCells()
	out := make([]float64, nc)
	for c := 0; c < nc; c++ {
		var w float64
		for k := 0; k < m.NLev; k++ {
			w += m.Qv[k*nc+c] * m.Ps[c] * m.DSig[k] / Gravity
		}
		out[c] = math.Min(1, w/50)
	}
	return out
}
