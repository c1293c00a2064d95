package atmos

import (
	"math"

	"repro/internal/grid"
	"repro/internal/pp"
	"repro/internal/precision"
)

// The dynamical core integrates the hydrostatic primitive equations in
// sigma coordinates on the icosahedral C-grid:
//
//   - normal velocity at edges, vector-invariant form: absolute-vorticity
//     Coriolis term, kinetic-energy + geopotential gradient, surface-
//     pressure gradient, divergence damping, vector Laplacian viscosity;
//   - surface pressure by flux-form column mass continuity (exactly
//     conservative);
//   - potential temperature and specific humidity by mass-weighted upwind
//     flux-form transport on the slower tracer step, using the mass fluxes
//     accumulated over the intervening dycore substeps (so tracer mass is
//     exactly consistent with the pressure field);
//   - a pluggable physics suite on the slowest step.
//
// Step runs one dycore substep and fires the tracer and physics steps at
// the configured multiples — GRIST's 8 s / 30 s / 120 s hierarchy.

// Step advances the model by one dycore substep.
func (m *Model) Step() {
	dt := m.Cfg.DtDycore
	m.dynamicsSubstep(dt)
	m.steps++
	if m.steps%m.Cfg.TracerEvery == 0 {
		m.tracerStep()
	}
	if m.steps%m.Cfg.PhysicsEvery == 0 {
		m.physicsStep(dt * float64(m.Cfg.PhysicsEvery))
		if m.Cfg.Policy == precision.Mixed {
			for _, f := range [][]float64{m.U, m.T, m.Qv, m.Ps} {
				if err := precision.QuantizeInPlace(f, m.Cfg.PrecGroup); err != nil {
					panic(err)
				}
			}
			if m.dec != nil {
				// Group-scaled quantization is sensitive to the whole group's
				// contents, so stale regions can requantize owned values
				// differently per rank; re-exchanging the prognostics keeps
				// every halo bit-identical to its owner (self-consistent,
				// though Mixed runs are not rank-count-invariant).
				m.dec.ExchangeEdges(m.U, m.NLev)
				m.dec.ExchangeCells(m.T, m.NLev)
				m.dec.ExchangeCells(m.Qv, m.NLev)
				m.dec.ExchangeCells(m.Ps, 1)
			}
		}
	}
}

// StepModel advances one full model step (PhysicsEvery dycore substeps),
// the unit the coupler drives.
func (m *Model) StepModel() {
	for i := 0; i < m.Cfg.PhysicsEvery; i++ {
		m.Step()
	}
}

// DtModel returns the model (physics) step length in seconds.
func (m *Model) DtModel() float64 {
	return m.Cfg.DtDycore * float64(m.Cfg.PhysicsEvery)
}

// accFlux accumulates time-integrated per-level edge mass fluxes between
// tracer steps (kg/s · s = kg), and the per-level cell mass divergence
// integrals for the vertical redistribution.
type accFlux struct {
	edge []float64 // [nlev*nEdges] ∫ F_e dt
	dps  []float64 // [nCells] ∫ dps/dt dt (pressure change since last tracer step)
}

// FluxAccumulators exposes the tracer-window mass-flux accumulators for
// restart files. Both are nil before the first dycore substep.
func (m *Model) FluxAccumulators() (edge, dps []float64) {
	if m.flux == nil {
		return nil, nil
	}
	return m.flux.edge, m.flux.dps
}

// RestoreState reinstates the substep counter and flux accumulators from a
// restart file, so a restarted run fires its tracer and physics steps on
// exactly the original schedule.
func (m *Model) RestoreState(steps int, edge, dps []float64) {
	m.steps = steps
	if edge == nil && dps == nil {
		return
	}
	ne, nc := m.Mesh.NEdges(), m.Mesh.NCells()
	if len(edge) != m.NLev*ne || len(dps) != nc {
		panic("atmos: restart flux accumulator size mismatch")
	}
	m.flux = &accFlux{
		edge: append([]float64(nil), edge...),
		dps:  append([]float64(nil), dps...),
	}
}

// dynamicsSubstep is the thin driver over the registered kernels in
// kernels.go: it refreshes the float64 thermodynamic diagnostics, launches
// the cell/vertex/edge kernels at the configured precision, and keeps the
// continuity update (exact conservation) in float64. The float64 path is
// bit-for-bit the pre-refactor sweep; the mixed path runs the same kernel
// bodies at float32 with the sensitive differences still formed in float64.
// Every sweep is a body bound once in dyScratch, so a substep allocates
// nothing.
func (m *Model) dynamicsSubstep(dt float64) {
	nc, ne := m.Mesh.NCells(), m.Mesh.NEdges()
	nlev := m.NLev

	if m.flux == nil {
		m.flux = &accFlux{
			edge: make([]float64, nlev*ne),
			dps:  make([]float64, nc),
		}
	}
	s := m.dyEnsure()
	s.dt = dt
	s.eg.bindStep(dt, m.Cfg.Div4, m.Cfg.KhMomentum)

	// --- Diagnostics needed by the momentum equation ---

	// Virtual temperature and geopotential at full levels — the Log-based
	// vertical integral stays float64 at every kernel precision.
	m.extCells(s.swTvPhi)
	// Per-cell ln(ps), hoisted out of the per-edge momentum loop: the same
	// math.Log on the same input, so every edge reads identical bits.
	m.extCells(s.swLnPs)

	// --- Cell diagnostics, vorticity, momentum: registered kernels ---
	var cells, verts, edges []int
	if m.dec != nil {
		cells, verts, edges = m.dec.ExtCells, m.dec.CompVerts, m.dec.CompEdges
	}
	if m.kprec == pp.PrecMixed {
		m32 := s.m32
		pp.Convert32(m32.u, m.U)
		for i := range m32.newU {
			m32.newU[i] = 0
		}
		m32.bKeDiv.cells = cells
		pp.Kernels.MustLaunch(hAtmKeDiv, m.Sp, m32.bKeDiv)
		m32.bVort.verts = verts
		pp.Kernels.MustLaunch(hAtmVort, m.Sp, m32.bVort)
		m32.bMom.edges = edges
		pp.Kernels.MustLaunch(hAtmMomentum, m.Sp, m32.bMom)
	} else {
		for i := range s.newU {
			s.newU[i] = 0
		}
		s.bKeDiv.u, s.bKeDiv.cells = m.U, cells
		pp.Kernels.MustLaunch(hAtmKeDiv, m.Sp, s.bKeDiv)
		s.bVort.u, s.bVort.verts = m.U, verts
		pp.Kernels.MustLaunch(hAtmVort, m.Sp, s.bVort)
		s.bMom.u, s.bMom.newU, s.bMom.edges = m.U, s.newU, edges
		pp.Kernels.MustLaunch(hAtmMomentum, m.Sp, s.bMom)
		s.bKeDiv.u, s.bVort.u, s.bMom.u, s.bMom.newU = nil, nil, nil, nil
	}

	// --- Continuity: per-level mass fluxes and surface pressure ---
	for i := range s.dpsDt {
		s.dpsDt[i] = 0
	}
	m.ownedCells(s.swDpsDt)
	// Edge flux accumulation runs over edges (each edge once); decomposed,
	// every edge of an owned cell is a computed edge, so the accumulators the
	// tracer step reads are always locally valid.
	m.compEdges(s.swFlux)
	m.ownedCells(s.swPs)
	// Publish the momentum update. The float64 path swaps the persistent
	// scratch in (the retired array becomes next substep's scratch); the
	// mixed path widens the float32 result back into the model state.
	if m.kprec == pp.PrecMixed {
		pp.Convert64(m.U, s.m32.newU)
	} else {
		m.U, s.newU = s.newU, m.U
	}
	if m.dec != nil {
		// Halo barrier: refresh Ps on the ring-1 halo and U on the extended
		// edges the neighbours own, so the next substep's stencils read the
		// owners' freshly computed values.
		m.dec.ExchangeCells(m.Ps, 1)
		m.dec.ExchangeEdges(m.U, nlev)
	}
}

// tvPhiCell integrates virtual temperature and geopotential up column c,
// with the level-only logarithms read from the dyScratch tables.
func (m *Model) tvPhiCell(c int) {
	s := m.dy
	nc := m.Mesh.NCells()
	below := 0.0 // geopotential at the interface below the current layer
	for k := m.NLev - 1; k >= 0; k-- {
		i := k*nc + c
		s.tv[i] = m.T[i] * (1 + 0.608*m.Qv[i])
		s.phi[i] = below + Rd*s.tv[i]*s.lnBotMid[k]
		below += Rd * s.tv[i] * s.lnBotTop[k]
	}
}

func (m *Model) lnPsCell(c int) { m.dy.lnPs[c] = math.Log(m.Ps[c]) }

// dpsDtCell is column c's mass divergence. Mass per area of layer k is
// ps·Δσ_k/g; the flux through an edge uses upwind ps, evaluated with the
// pre-update velocity for consistency with the accumulated tracer fluxes.
func (m *Model) dpsDtCell(c int) {
	mesh := m.Mesh
	ne := mesh.NEdges()
	re := grid.EarthRadius
	var sum float64
	for k := 0; k < m.NLev; k++ {
		uLvl := m.U[k*ne : (k+1)*ne]
		for j, e := range mesh.EdgesOnCell[c] {
			sign := float64(mesh.EdgeSignOnCell[c][j])
			u := uLvl[e]
			// Upwind surface pressure.
			var psUp float64
			if sign*u >= 0 {
				psUp = m.Ps[c]
			} else {
				psUp = m.Ps[mesh.CellsOnCell[c][j]]
			}
			sum += sign * u * psUp * m.DSig[k] * mesh.Dv[e] * re
		}
	}
	m.dy.dpsDt[c] = -sum / (mesh.AreaCell[c] * re * re)
}

// fluxEdge accumulates edge e's per-level mass flux over the substep.
func (m *Model) fluxEdge(e int) {
	mesh := m.Mesh
	ne := mesh.NEdges()
	re := grid.EarthRadius
	dt := m.dy.dt
	c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
	for k := 0; k < m.NLev; k++ {
		u := m.U[k*ne+e]
		var psUp float64
		if u >= 0 {
			psUp = m.Ps[c1]
		} else {
			psUp = m.Ps[c2]
		}
		// kg/s through the edge (positive c1→c2), times dt.
		m.flux.edge[k*ne+e] += dt * u * psUp * m.DSig[k] / Gravity * m.Mesh.Dv[e] * re
	}
}

func (m *Model) psCell(c int) {
	dt, dpsDt := m.dy.dt, m.dy.dpsDt
	m.Ps[c] += dt * dpsDt[c]
	m.flux.dps[c] += dt * dpsDt[c]
}

// sigInt returns the sigma value of interface k (k = 0 is the model top).
func (m *Model) sigInt(k int) float64 {
	const top = 0.05
	return top + (1-top)*float64(k)/float64(m.NLev)
}

// tracerStep transports potential-temperature-carrying T and moisture with
// the accumulated mass fluxes. Transport is formulated on θ = T·(p0/pσ)^κ
// so that adiabatic compression is handled by the coordinate, then mapped
// back to T.
//
// The persistent buffers need no clearing: every entry a sweep reads was
// written earlier in the same tracer step (θ on the extended patch, the
// transported tracers on the owned cells).
func (m *Model) tracerStep() {
	nc := m.Mesh.NCells()
	nlev := m.NLev
	s := m.dyEnsure()

	// Decomposed, the dps accumulator was only summed on owned cells; the
	// halo needs the owners' values before psOld (and through it θ) can be
	// evaluated on the extended patch.
	if m.dec != nil {
		m.dec.ExchangeCells(m.flux.dps, 1)
	}

	// Pre-update masses: ps before this tracer window = Ps - accumulated dps.
	// The full-range loop is kept in both modes: outside the extended patch
	// the inputs are stale-but-finite and the result is never read.
	for c := 0; c < nc; c++ {
		s.psOld[c] = m.Ps[c] - m.flux.dps[c]
	}

	// θ and qv as mass-weighted quantities.
	m.extCells(s.swTheta)
	m.transport(s.theta, s.newTheta)
	m.transport(m.Qv, s.newQv)
	m.ownedCells(s.swTracerOut)
	if m.dec != nil {
		m.dec.ExchangeCells(m.T, nlev)
		m.dec.ExchangeCells(m.Qv, nlev)
	}

	// Reset accumulators.
	for i := range m.flux.edge {
		m.flux.edge[i] = 0
	}
	for i := range m.flux.dps {
		m.flux.dps[i] = 0
	}
}

func (m *Model) thetaCell(c int) {
	s := m.dy
	nc := m.Mesh.NCells()
	for k := 0; k < m.NLev; k++ {
		i := k*nc + c
		s.theta[i] = m.T[i] * math.Pow(P0/(m.Sig[k]*s.psOld[c]), Kappa)
	}
}

func (m *Model) tracerOutCell(c int) {
	s := m.dy
	nc := m.Mesh.NCells()
	for k := 0; k < m.NLev; k++ {
		i := k*nc + c
		m.T[i] = s.newTheta[i] * math.Pow(m.Sig[k]*m.Ps[c]/P0, Kappa)
		m.Qv[i] = math.Max(s.newQv[i], 0)
	}
}

// transport advances tracer x into out with the accumulated horizontal
// mass fluxes plus the implied vertical redistribution, conserving Σ M·X
// exactly. Owned cells only: the upwind stencil reads x on the ring-1 halo,
// and the caller exchanges the written-back tracers afterwards.
func (m *Model) transport(x, out []float64) {
	s := m.dy
	s.trX, s.trOut = x, out
	m.ownedCells(s.swTransport)
	s.trX, s.trOut = nil, nil
}

// stackLevels is the column depth up to which per-column work arrays live
// on the stack; deeper columns fall back to the heap.
const stackLevels = 32

// transportCell is one cell of transport: new mass content = old content −
// horizontal flux divergence − vertical flux divergence, then divide by
// new mass.
func (m *Model) transportCell(c int) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev
	re := grid.EarthRadius
	s := m.dy
	x, out, psOld := s.trX, s.trOut, s.psOld

	area := mesh.AreaCell[c] * re * re
	// Horizontal: per-level content change (kg·X) and accumulated mass
	// divergence per level (kg).
	var buf [2 * stackLevels]float64
	var dContent, hdiv []float64
	if nlev <= stackLevels {
		dContent, hdiv = buf[:nlev], buf[stackLevels:stackLevels+nlev]
	} else {
		dContent, hdiv = make([]float64, nlev), make([]float64, nlev)
	}
	for k := 0; k < nlev; k++ {
		for j, e := range mesh.EdgesOnCell[c] {
			sign := float64(mesh.EdgeSignOnCell[c][j])
			fm := sign * m.flux.edge[k*ne+e] // kg leaving through e if > 0
			var xUp float64
			if fm >= 0 {
				xUp = x[k*nc+c]
			} else {
				xUp = x[k*nc+mesh.CellsOnCell[c][j]]
			}
			dContent[k] -= fm * xUp
			hdiv[k] -= fm
		}
	}
	// Vertical redistribution: layer k's target mass is ps_new·Δσ/g·A.
	// The interface mass flux W (downward positive, kg over the window)
	// follows from per-layer continuity; upwind X across interfaces.
	dpsA := (m.Ps[c] - psOld[c]) * area / Gravity
	w := 0.0 // flux through the top of the current layer
	for k := 0; k < nlev; k++ {
		// Mass balance of layer k: ΔM_k = hdiv_k + w_top − w_bot
		// with ΔM_k = Δσ_k·Δps·A/g  ⇒  w_bot = hdiv_k + w_top − ΔM_k.
		wBot := hdiv[k] + w - m.DSig[k]*dpsA
		if k == nlev-1 {
			wBot = 0 // closed lower boundary (telescopes exactly)
		}
		// Upwind interface values.
		if w > 0 { // mass entering from above
			if k > 0 {
				dContent[k] += w * x[(k-1)*nc+c]
			}
		} else if k > 0 {
			dContent[k] += w * x[k*nc+c]
		}
		if wBot > 0 { // mass leaving downward
			dContent[k] -= wBot * x[k*nc+c]
		} else if k < nlev-1 {
			dContent[k] -= wBot * x[(k+1)*nc+c]
		}
		oldMass := psOld[c] * m.DSig[k] / Gravity * area
		newMass := m.Ps[c] * m.DSig[k] / Gravity * area
		out[k*nc+c] = (x[k*nc+c]*oldMass + dContent[k]) / newMass
		w = wBot
	}
}

// physicsStep runs the pluggable suite column by column and applies its
// tendencies; cell-vector momentum tendencies project back onto edges.
//
// Physics columns run on the extended patch: the halo columns are
// recomputed redundantly from inputs the exchanges keep bit-identical to
// their owners', so the column outputs (T, Qv, and the seven export fields)
// are halo-valid without any post-physics cell exchange.
func (m *Model) physicsStep(dt float64) {
	ne := m.Mesh.NEdges()
	kB := m.NLev - 1
	s := m.dyEnsure()
	s.physDt = dt
	m.extCells(s.swColumn)
	// Project the boundary-layer momentum tendency onto lowest-level edges.
	m.compEdges(s.swProject)
	if m.dec != nil {
		// Only the lowest level changed; exchange just that contiguous window
		// to refresh the received extended edges the projection left stale.
		m.dec.ExchangeEdges(m.U[kB*ne:(kB+1)*ne], 1)
	}
}

// columnBuf is one worker's column scratch for the physics sweep.
type columnBuf struct {
	in  ColumnIn
	out ColumnOut
}

func newColumnBuf(nlev int) *columnBuf {
	b := &columnBuf{}
	b.in.U, b.in.V = make([]float64, nlev), make([]float64, nlev)
	b.in.T, b.in.Q, b.in.P = make([]float64, nlev), make([]float64, nlev), make([]float64, nlev)
	b.out.DT, b.out.DQ = make([]float64, nlev), make([]float64, nlev)
	b.out.DU, b.out.DV = make([]float64, nlev), make([]float64, nlev)
	return b
}

// physicsColumn runs the suite on column c with a pooled column scratch,
// reset exactly as a freshly allocated ColumnOut would be.
func (m *Model) physicsColumn(c int) {
	mesh := m.Mesh
	nc, ne := mesh.NCells(), mesh.NEdges()
	nlev := m.NLev
	s := m.dy
	dt := s.physDt
	b := s.cols.Get().(*columnBuf)
	in := &b.in
	in.Lat, in.TSkin, in.CosZ = mesh.LatCell[c], m.SST[c], m.cosZenith(c)
	in.Land, in.Ice = m.IsLand[c], m.IceFrac[c]
	for k := 0; k < nlev; k++ {
		uLvl := m.U[k*ne : (k+1)*ne]
		in.U[k], in.V[k] = m.recon.CellUV(uLvl, c)
		in.T[k] = m.T[k*nc+c]
		in.Q[k] = m.Qv[k*nc+c]
		in.P[k] = m.Sig[k] * m.Ps[c]
	}
	out := &b.out
	clear(out.DT)
	clear(out.DQ)
	clear(out.DU)
	clear(out.DV)
	*out = ColumnOut{DT: out.DT, DQ: out.DQ, DU: out.DU, DV: out.DV}
	m.Physics.Column(*in, dt, out)
	for k := 0; k < nlev; k++ {
		i := k*nc + c
		m.T[i] += dt * out.DT[k]
		m.Qv[i] = math.Max(m.Qv[i]+dt*out.DQ[k], 0)
	}
	// Lowest-level momentum tendency represents surface drag; store the
	// cell tendency for edge projection of the whole column via the lowest
	// level (dominant), and the fluxes for export. The conventional and AI
	// suites only produce boundary-layer drag, so the lowest level carries
	// the signal.
	s.duCell[c] = out.DU[nlev-1]
	s.dvCell[c] = out.DV[nlev-1]
	m.Precip[c] = out.Precip
	m.TauX[c] = out.TauX
	m.TauY[c] = out.TauY
	m.SHF[c] = out.SHF
	m.LHF[c] = out.LHF
	m.GSW[c] = out.GSW
	m.GLW[c] = out.GLW
	s.cols.Put(b)
}

// projectEdge adds the boundary-layer momentum tendency of edge e's two
// cells, projected on the edge normal, to its lowest-level velocity.
func (m *Model) projectEdge(e int) {
	mesh := m.Mesh
	ne := mesh.NEdges()
	s := m.dy
	kB := m.NLev - 1
	c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
	n := m.recon.normal3[e]
	add := func(c int) float64 {
		vec := m.recon.east[c].Scale(s.duCell[c]).Add(m.recon.north[c].Scale(s.dvCell[c]))
		return vec.Dot(n)
	}
	m.U[kB*ne+e] += s.physDt * 0.5 * (add(c1) + add(c2))
}

// cosZenith returns the diurnally-averaged cosine of the solar zenith angle
// for the model's perpetual-equinox insolation: cos(lat)/π, the daily mean
// at equinox. Using the daily mean (rather than an instantaneous sun fixed
// over one meridian) keeps every longitude climatologically equivalent,
// which regional experiments such as the Doksuri hindcast rely on.
func (m *Model) cosZenith(c int) float64 {
	cz := math.Cos(m.Mesh.LatCell[c]) / math.Pi
	if cz < 0 {
		cz = 0
	}
	return cz
}
