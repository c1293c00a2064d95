package atmos

import (
	"math"

	"repro/internal/pp"
)

// ColumnIn is the physics–dynamics coupling interface input (§5.2.1): the
// AI tendency module takes horizontal wind, temperature, specific humidity,
// and pressure; the AI radiation diagnosis additionally takes the skin
// temperature and the cosine of the solar zenith angle. The conventional
// suite consumes the same contract, which is what makes the suites
// interchangeable.
type ColumnIn struct {
	U, V, T, Q, P []float64 // per level, k = 0 at the model top
	Lat           float64
	TSkin         float64 // surface (skin) temperature, K
	CosZ          float64 // cosine of solar zenith angle
	Land          bool
	Ice           float64 // sea-ice fraction
}

// ColumnOut carries the suite's tendencies and diagnosed surface fields.
type ColumnOut struct {
	DT, DQ, DU, DV []float64 // tendencies per level, per second
	GSW, GLW       float64   // downward shortwave/longwave at the surface, W/m²
	Precip         float64   // precipitation rate, kg/m²/s
	TauX, TauY     float64   // surface wind stress, N/m²
	SHF, LHF       float64   // sensible/latent heat flux, W/m² (positive up)
}

// Suite is the pluggable physics parameterization suite.
type Suite interface {
	Name() string
	// Column computes tendencies for one column over timestep dt. The out
	// slices are pre-allocated by the caller.
	Column(in ColumnIn, dt float64, out *ColumnOut)
}

// ConventionalSuite is the traditional parameterization package the AI
// suite replaces: Held–Suarez radiation (Newtonian relaxation toward the
// analytic equilibrium temperature) and boundary-layer Rayleigh friction,
// plus bulk surface fluxes, surface evaporation, large-scale condensation
// with latent heating, and an empirical surface radiation diagnosis.
type ConventionalSuite struct {
	m *Model

	// Held–Suarez timescales.
	TauRad  float64 // background radiative relaxation, s (40 days)
	TauRadT float64 // tropical boundary-layer relaxation, s (4 days)
	TauFric float64 // boundary-layer friction, s (1 day)
	SigmaB  float64 // boundary-layer top in sigma

	// Bulk exchange coefficients.
	Cd float64 // drag
	Ch float64 // sensible heat
	Ce float64 // evaporation

	S0     float64 // solar constant, W/m²
	Albedo float64

	// DisableRadiation skips the two-stream diagnosis; the AI suite sets it
	// on its retained conventional diagnostic module, because the AI
	// radiation module replaces exactly that computation (§5.2.1).
	DisableRadiation bool

	// Per-g-point absorption coefficients of the two-stream diagnosis,
	// built once: RRTMG's discretization (swGPoints shortwave and
	// lwGPoints longwave g-points), which is what makes conventional
	// radiation the dominant physics cost the AI radiation module replaces.
	swK, lwK []float64
}

// NewConventionalSuite returns the suite with standard coefficients.
func NewConventionalSuite(m *Model) *ConventionalSuite {
	return &ConventionalSuite{
		m:       m,
		TauRad:  40 * 86400,
		TauRadT: 4 * 86400,
		TauFric: 1 * 86400,
		SigmaB:  0.7,
		Cd:      1.3e-3,
		Ch:      1.0e-3,
		Ce:      1.2e-3,
		S0:      1361,
		Albedo:  0.3,
		swK:     gTable(swGPoints, 2e-4, 9),
		lwK:     gTable(lwGPoints, 5e-4, 8),
	}
}

// Spectral g-point counts of the two-stream radiation diagnosis.
const (
	swGPoints = 112
	lwGPoints = 140
)

// gTable returns n log-spaced absorption coefficients from k0 (window) to
// k0·e^span (saturated).
func gTable(n int, k0, span float64) []float64 {
	k := make([]float64, n)
	for g := range k {
		k[g] = k0 * math.Exp(span*float64(g)/float64(n-1))
	}
	return k
}

// Name implements Suite.
func (s *ConventionalSuite) Name() string { return "conventional" }

// Column implements Suite.
func (s *ConventionalSuite) Column(in ColumnIn, dt float64, out *ColumnOut) {
	nlev := len(in.T)
	m := s.m
	ps := in.P[nlev-1] / m.Sig[nlev-1]

	// --- Held–Suarez radiation: relax T toward equilibrium. In the
	// boundary layer the analytic target blends toward the actual skin
	// temperature (≈1 K warmer air aloft), the usual aquaplanet correction:
	// without it the analytic tropics sit ~6 K above the SST, inverting the
	// sensible heat flux and shutting off evaporation. ---
	for k := 0; k < nlev; k++ {
		sig := m.Sig[k]
		teq := equilibriumT(in.Lat, sig)
		if sig > 0.85 && in.TSkin > 0 {
			w := (sig - 0.85) / 0.15
			teq = w*(in.TSkin-1) + (1-w)*teq
		}
		// Relaxation rate: fast in the tropical boundary layer.
		kt := 1 / s.TauRad
		if sig > s.SigmaB {
			frac := (sig - s.SigmaB) / (1 - s.SigmaB)
			kt += (1/s.TauRadT - 1/s.TauRad) * frac * cosSq(in.Lat) * cosSq(in.Lat)
		}
		out.DT[k] = -kt * (in.T[k] - teq)
	}

	// --- Boundary-layer friction ---
	for k := 0; k < nlev; k++ {
		sig := m.Sig[k]
		if sig > s.SigmaB {
			kv := (sig - s.SigmaB) / (1 - s.SigmaB) / s.TauFric
			out.DU[k] = -kv * in.U[k]
			out.DV[k] = -kv * in.V[k]
		}
	}

	// --- Surface exchange (lowest level) ---
	kb := nlev - 1
	wind := math.Hypot(in.U[kb], in.V[kb])
	rhoSfc := ps / (Rd * in.T[kb])
	// The skin temperature is the ocean SST, the ice surface, or the land
	// model's soil temperature, whichever owns the cell.
	tSfc := in.TSkin
	// Wind stress (on the atmosphere: deceleration; exported as stress on
	// the surface).
	out.TauX = rhoSfc * s.Cd * wind * in.U[kb]
	out.TauY = rhoSfc * s.Cd * wind * in.V[kb]
	// Sensible heat flux (positive = surface heats the atmosphere when the
	// surface is warmer).
	shf := rhoSfc * Cpd * s.Ch * wind * (tSfc - in.T[kb])
	out.SHF = shf
	// The lowest layer warms/cools accordingly: flux divided by layer mass.
	layerMass := ps * s.m.DSig[kb] / Gravity
	out.DT[kb] += shf / (Cpd * layerMass)

	// --- Evaporation (open water only, scaled down by ice cover) ---
	if !in.Land {
		open := 1 - in.Ice
		qs := qsat(tSfc, ps)
		evap := rhoSfc * s.Ce * wind * (qs - in.Q[kb]) * open
		if evap < 0 {
			evap = 0
		}
		out.DQ[kb] += evap / layerMass
		out.LHF = LatVap * evap
	}

	// --- Large-scale condensation with latent heating ---
	var precip float64
	for k := 0; k < nlev; k++ {
		qs := qsat(in.T[k], in.P[k])
		if in.Q[k] > qs {
			excess := (in.Q[k] - qs) / (1 + LatVap*LatVap*qs/(Cpd*Rd*in.T[k]*in.T[k]))
			// Rain out over the physics step.
			rate := excess / dt
			out.DQ[k] -= rate
			out.DT[k] += LatVap / Cpd * rate
			lm := ps * s.m.DSig[k] / Gravity
			precip += rate * lm
		}
	}
	out.Precip = precip

	// --- Radiation diagnosis (gsw, glw): the fields the AI radiation
	// module estimates for the land model and surface layer (§5.2.1).
	// Computed with a real multi-g-point two-stream sweep, the dominant
	// cost of a conventional physics suite.
	if !s.DisableRadiation {
		out.GSW, out.GLW = s.TwoStreamRadiation(in)
	}
}

// TwoStreamRadiation computes the downward shortwave and longwave fluxes at
// the surface with a correlated-k two-stream scheme: the spectrum is
// discretized into g-points with log-spaced absorption strengths; each
// g-point's beam is attenuated (SW) or emitted/absorbed (LW) layer by layer
// down the column. Water vapour is the absorber; the g-point weights follow
// an exponential distribution so a few strong g-points saturate while the
// window g-points carry flux to the surface — the structure real k-
// distribution radiation codes (RRTMG) have, at the same per-column cost
// scale.
// The sweep itself is the single-source twoStreamRad body in kernels.go:
// the float64 instantiation reproduces the historical arithmetic bit-for-
// bit (the g-point coefficient tables are hoisted out of the column loop,
// but each table entry is the identical expression the loop computed); the
// float32 instantiation is the mixed-precision path, whose win comes from
// pp.FastExpf replacing the ~1200 math.Exp calls per column that dominate
// the conventional suite's cost.
func (s *ConventionalSuite) TwoStreamRadiation(in ColumnIn) (gsw, glw float64) {
	nlev := len(in.T)
	m := s.m
	ps := in.P[nlev-1] / m.Sig[nlev-1]
	if m.kprec == pp.PrecMixed {
		return twoStreamRad[float32](in.Q, in.T, m.DSig, ps, in.CosZ, s.S0, s.swK, s.lwK)
	}
	return twoStreamRad[float64](in.Q, in.T, m.DSig, ps, in.CosZ, s.S0, s.swK, s.lwK)
}
