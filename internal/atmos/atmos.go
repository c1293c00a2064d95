// Package atmos is the GRIST-substitute atmosphere general circulation
// model: a hydrostatic primitive-equation dynamical core in sigma
// coordinates on the icosahedral cell/edge/vertex mesh, with GRIST's
// three-rate time stepping (fast dycore substeps, slower tracer transport,
// slowest physics — the paper's 8 s / 30 s / 120 s hierarchy), flux-form
// conservative mass and moisture transport, and a pluggable physics suite:
// either the conventional parameterizations or the AI-powered suite of
// §5.2.1, both behind the same physics–dynamics coupling interface.
//
// Parallelism follows the paper's division of labour: the atmosphere's
// heavy lifting is thread-level (OpenMP/SWGOMP on the CPEs), which the
// reproduction expresses by running every mesh sweep through a pp execution
// space; the distributed-memory layer is exercised by the ocean component.
package atmos

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/precision"
)

// Physical constants.
const (
	Gravity = 9.80616
	Rd      = 287.04  // gas constant, dry air
	Cpd     = 1004.64 // heat capacity, dry air
	P0      = 1.0e5   // reference surface pressure, Pa
	Kappa   = Rd / Cpd
	LatVap  = 2.5e6 // latent heat of vaporization, J/kg
)

// Config sets resolution-independent model parameters.
type Config struct {
	DtDycore     float64 // seconds per dynamics substep
	TracerEvery  int     // dycore substeps per tracer step (paper: 30 s / 8 s ≈ 4)
	PhysicsEvery int     // dycore substeps per physics step (paper: 120 s / 8 s = 15)
	Div4         float64 // divergence damping coefficient (nondimensional)
	Kh           float64 // horizontal diffusion for T, qv (m²/s)
	KhMomentum   float64 // horizontal viscosity for u (m²/s)
	Policy       precision.Policy
	PrecGroup    int
}

// DefaultConfig returns the standard test configuration: the paper's
// 1 : 3.75 : 15 sub-step ratios rounded to integers, laptop-scale dt.
func DefaultConfig() Config {
	return Config{
		DtDycore:     120,
		TracerEvery:  4,
		PhysicsEvery: 15,
		Div4:         0.02,
		Kh:           1.0e5,
		KhMomentum:   2.0e5,
		Policy:       precision.FP64,
		PrecGroup:    64,
	}
}

// Model is the atmosphere state.
type Model struct {
	Mesh *grid.IcosMesh
	Cfg  Config
	Sp   pp.Space
	NLev int

	// Sigma full-level values and layer thicknesses (Δσ), k=0 at the top.
	Sig  []float64
	DSig []float64

	// Prognostics. Cell-centred scalars are [k*nCells + c]; the normal
	// velocity is [k*nEdges + e].
	Ps []float64 // surface pressure [nCells]
	T  []float64 // temperature [nlev*nCells]
	Qv []float64 // specific humidity [nlev*nCells]
	U  []float64 // edge-normal velocity [nlev*nEdges]

	// Surface boundary conditions (imported from ocean/ice via the coupler,
	// or from the land model directly).
	SST     []float64 // surface temperature under each column [nCells], K
	IceFrac []float64 // sea-ice fraction [nCells]
	IsLand  []bool    // land mask on atmosphere cells [nCells]

	// Physics outputs accumulated for export.
	Precip []float64 // precipitation rate [nCells], kg/m²/s
	TauX   []float64 // surface zonal wind stress on cells, N/m²
	TauY   []float64
	SHF    []float64 // sensible heat flux to the surface owner (atm→sfc positive down)
	LHF    []float64 // latent heat flux
	GSW    []float64 // downward shortwave at surface (radiation diagnosis output)
	GLW    []float64 // downward longwave

	Physics Suite
	recon   *reconstructor
	flux    *accFlux
	steps   int
	dec     *grid.IcosDecomp
	kprec   pp.Prec // kernel precision, derived from the execution space
	dy      *dyScratch
}

// SetDecomp switches the model to decomposed stepping: every sweep covers
// only this rank's patch (owned cells plus the ring-1 halo required by the
// stencils), with halo exchanges at the substep boundaries. A nil decomp —
// the default, and the only valid state at 1 rank — keeps the original
// global-array path verbatim, which the golden tests pin bit-for-bit.
func (m *Model) SetDecomp(d *grid.IcosDecomp) { m.dec = d }

// Decomp returns the active decomposition (nil when replicated).
func (m *Model) Decomp() *grid.IcosDecomp { return m.dec }

// Decompose partitions the mesh over the communicator and switches the
// model to decomposed stepping, returning the partition behind the shared
// grid.Decomp contract so callers never name the concrete icosahedral type.
func (m *Model) Decompose(c *par.Comm) (grid.Decomp, error) {
	d, err := grid.NewIcosDecomp(m.Mesh, c)
	if err != nil {
		return nil, err
	}
	m.dec = d
	return d, nil
}

// sweep is a loop body bound once, with the index mapping of the
// decomposed iteration sets, so launching it allocates nothing.
type sweep struct {
	body func(int)
	set  []int // decomposed iteration set
	at   func(i int)
}

func newSweep(body func(int)) *sweep {
	s := &sweep{body: body}
	s.at = func(i int) { s.body(s.set[i]) }
	return s
}

// The loop helpers below pick the iteration set for each sweep class. In the
// replicated case they are exactly the original full-range ParallelFor, so
// the 1-rank answer is bit-identical by construction; decomposed, they visit
// the listed subset through the same execution space. Per-cell arithmetic is
// identical either way, which is what makes the decomposed answer
// rank-count-invariant bit-for-bit.

// extCells sweeps the extended patch: owned cells plus the ring-1 halo.
// Cell diagnostics (tv, phi, θ) and physics columns run here so that edge
// and ownership stencils never read a stale cell.
func (m *Model) extCells(s *sweep) {
	if m.dec == nil {
		m.Sp.ParallelFor(m.Mesh.NCells(), s.body)
		return
	}
	s.set = m.dec.ExtCells
	m.Sp.ParallelFor(len(s.set), s.at)
}

// ownedCells sweeps only the owned cells — prognostic writebacks (Ps, T,
// Qv) whose halo copies arrive by exchange.
func (m *Model) ownedCells(s *sweep) {
	if m.dec == nil {
		m.Sp.ParallelFor(m.Mesh.NCells(), s.body)
		return
	}
	s.set = m.dec.Owned
	m.Sp.ParallelFor(len(s.set), s.at)
}

// compEdges sweeps the computed edges: every edge with at least one owned
// endpoint. Adjacent ranks compute the shared boundary edges redundantly
// from identical inputs, so no edge-tendency exchange is needed.
func (m *Model) compEdges(s *sweep) {
	if m.dec == nil {
		m.Sp.ParallelFor(m.Mesh.NEdges(), s.body)
		return
	}
	s.set = m.dec.CompEdges
	m.Sp.ParallelFor(len(s.set), s.at)
}

// New builds the model at the given mesh refinement level with nlev levels.
func New(level, nlev int, cfg Config, sp pp.Space) (*Model, error) {
	if nlev < 2 {
		return nil, fmt.Errorf("atmos: need at least 2 levels, got %d", nlev)
	}
	if cfg.DtDycore <= 0 || cfg.TracerEvery <= 0 || cfg.PhysicsEvery <= 0 {
		return nil, fmt.Errorf("atmos: non-positive stepping configuration")
	}
	mesh, err := grid.NewIcosMesh(level)
	if err != nil {
		return nil, err
	}
	if sp == nil {
		sp = pp.Serial{}
	}
	m := &Model{Mesh: mesh, Cfg: cfg, Sp: sp, NLev: nlev, kprec: pp.PrecOf(sp)}

	// Sigma layers: uniform interfaces from σ=0.05 (model top) to 1.
	m.Sig = make([]float64, nlev)
	m.DSig = make([]float64, nlev)
	top := 0.05
	for k := 0; k < nlev; k++ {
		si0 := top + (1-top)*float64(k)/float64(nlev)
		si1 := top + (1-top)*float64(k+1)/float64(nlev)
		m.Sig[k] = 0.5 * (si0 + si1)
		m.DSig[k] = si1 - si0
	}

	nc, ne := mesh.NCells(), mesh.NEdges()
	m.Ps = make([]float64, nc)
	m.T = make([]float64, nlev*nc)
	m.Qv = make([]float64, nlev*nc)
	m.U = make([]float64, nlev*ne)
	m.SST = make([]float64, nc)
	m.IceFrac = make([]float64, nc)
	m.IsLand = make([]bool, nc)
	m.Precip = make([]float64, nc)
	m.TauX = make([]float64, nc)
	m.TauY = make([]float64, nc)
	m.SHF = make([]float64, nc)
	m.LHF = make([]float64, nc)
	m.GSW = make([]float64, nc)
	m.GLW = make([]float64, nc)

	for c := 0; c < nc; c++ {
		m.IsLand[c] = grid.IsLand(m.Mesh.LonCell[c], m.Mesh.LatCell[c])
	}

	m.recon = newReconstructor(mesh)
	m.Physics = NewConventionalSuite(m)
	m.InitBaroclinicRest()
	return m, nil
}

// InitBaroclinicRest sets the canonical initial condition: a resting
// atmosphere with a latitude-dependent temperature structure near radiative
// equilibrium, moist near the tropical surface, ps = P0 everywhere.
func (m *Model) InitBaroclinicRest() {
	nc := m.Mesh.NCells()
	for c := 0; c < nc; c++ {
		m.Ps[c] = P0
		lat := m.Mesh.LatCell[c]
		tSkin := 273.15 + 28*math.Cos(lat)*math.Cos(lat)
		for k := 0; k < m.NLev; k++ {
			i := k*nc + c
			m.T[i] = equilibriumT(lat, m.Sig[k])
			if sig := m.Sig[k]; sig > 0.85 {
				w := (sig - 0.85) / 0.15
				m.T[i] = w*(tSkin-1) + (1-w)*m.T[i]
			}
			// Moisture: ~80 % of saturation in the lowest layers, drying
			// upward.
			p := m.Sig[k] * P0
			m.Qv[i] = 0.8 * qsat(m.T[i], p) * math.Pow(m.Sig[k], 3)
		}
		m.SST[c] = 273.15 + 28*math.Cos(lat)*math.Cos(lat)
	}
	for i := range m.U {
		m.U[i] = 0
	}
}

// equilibriumT is the Held–Suarez radiative-equilibrium temperature used
// both for initialization and by the conventional suite's radiation.
func equilibriumT(lat, sig float64) float64 {
	p := sig * P0
	t := (315 - 60*sinSq(lat) - 10*math.Log(p/P0)*cosSq(lat)) * math.Pow(p/P0, Kappa)
	if t < 200 {
		t = 200
	}
	return t
}

func sinSq(x float64) float64 { s := math.Sin(x); return s * s }
func cosSq(x float64) float64 { c := math.Cos(x); return c * c }

// qsat returns saturation specific humidity (kg/kg) at temperature T (K)
// and pressure p (Pa), via the Tetens formula.
func qsat(t, p float64) float64 {
	es := 610.78 * math.Exp(17.27*(t-273.15)/(t-35.85))
	q := 0.622 * es / math.Max(p-0.378*es, 1)
	return math.Min(q, 0.08)
}

// Steps returns the number of dycore substeps taken.
func (m *Model) Steps() int { return m.steps }

// SigmaP returns the pressure at full level k of column c.
func (m *Model) SigmaP(k, c int) float64 { return m.Sig[k] * m.Ps[c] }
