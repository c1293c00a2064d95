package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atmos"
	"repro/internal/budget"
	"repro/internal/coupler"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/land"
	"repro/internal/obs"
	"repro/internal/ocean"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/seaice"
)

// ESM is the assembled coupled model. It runs SPMD over a communicator:
// by default both task domains are domain-decomposed — the ocean and sea
// ice over a 2D tripolar block partition with land-block elimination
// (the paper's second task domain), the atmosphere and land over an
// icosahedral cell partition (the first). Either side can instead run
// replicated (WithAtmDecomp(false) / WithOcnDecomp(false)): every rank
// computes it redundantly at miniature scale, which gives bit-identical
// coupling without the rearrangers and serves as the scaling baseline.
// Both decompositions are driven through the shared grid.Decomp contract.
// The component exchange contract, field names, coupling clock, and
// per-component alarms follow CPL7 (§5.1.1): 180 atmosphere, 36 ocean,
// and 180 sea-ice couplings per simulated day.
type ESM struct {
	Cfg  Config
	Comm *par.Comm

	Atm *atmos.Model
	Ocn *ocean.Ocean
	Ice *seaice.Model
	Lnd *land.Model
	Rg  *Regridder

	Clock *coupler.Clock

	// Global surface fields shared with the atmosphere (identical on all
	// ranks after each coupling).
	sstGlobal []float64
	iceGlobal []float64

	obs obs.Observer

	couplingSteps int
	ocnStepsPer   int

	// Flux remap mode, the conservation-audit ledger (nil when auditing is
	// off), and the persistent per-atmosphere-cell flux-part buffers used by
	// the conservative remap and the audit's export-side integrals (nil when
	// neither needs them).
	remap  RemapMode
	ledger *budget.Ledger
	af     *atmFluxes

	// Wire format of the hot communication paths (halo exchanges, nn and
	// ice-forcing rearrangers). The conservative flux rearranger is exempt
	// and always ships f64 — see initDistribute.
	wire par.WireFormat

	// Atmosphere + land domain decomposition (nil / empty when replicated):
	// the icosahedral partition behind the shared Decomp contract, the
	// distributed coupling rearrange state, the land slots this rank steps
	// (extended patch) and audits (owned range), and the persistent 10 m
	// wind buffers the surface loops fill in place.
	dec       grid.Decomp
	dst       *distState
	stepSlots []int
	ownSlots  []int
	u10, v10  []float64
}

// atmFluxes holds the per-atmosphere-cell air–sea flux parts, positive into
// the ocean, with the open-water fraction already folded in.
type atmFluxes struct {
	sw, lw, sens, lat, qnet []float64 // W/m²
	emp                     []float64 // evaporation − precipitation, kg/m²/s
	taux, tauy              []float64 // N/m²
}

func newAtmFluxes(n int) *atmFluxes {
	return &atmFluxes{
		sw: make([]float64, n), lw: make([]float64, n),
		sens: make([]float64, n), lat: make([]float64, n),
		qnet: make([]float64, n), emp: make([]float64, n),
		taux: make([]float64, n), tauy: make([]float64, n),
	}
}

// New assembles the coupled model over the communicator for the simulated
// interval [start, stop). It is the positional wrapper over NewWithOptions
// kept for existing call sites.
func New(cfg Config, c *par.Comm, start, stop time.Time, sp pp.Space) (*ESM, error) {
	return NewWithOptions(cfg, c, WithInterval(start, stop), WithSpace(sp))
}

// assemble builds the model from resolved options.
func assemble(cfg Config, c *par.Comm, opt options) (*ESM, error) {
	start, stop := opt.start, opt.stop
	sp, ob := opt.sp, opt.obs
	if opt.kprec == pp.PrecMixed {
		// The Vec wrapper goes on before instrumentation so components derive
		// their kernel precision from pp.PrecOf(sp) through the Instrumented
		// shell at construction time.
		sp = pp.NewVec(sp)
	}
	if _, disabled := ob.(obs.Nop); !disabled {
		// Live instrumentation: the communicator forwards traffic counts and
		// the execution space reports kernel launches to the same observer.
		c.SetObserver(ob)
		sp = pp.Instrument(sp, ob)
	}
	atm, err := atmos.New(cfg.AtmLevel, cfg.AtmNLev, cfg.AtmCfg, sp)
	if err != nil {
		return nil, fmt.Errorf("core: atmosphere: %w", err)
	}
	g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
	if err != nil {
		return nil, fmt.Errorf("core: ocean grid: %w", err)
	}
	// Ocean + sea-ice decomposition: a 2D tripolar block partition with
	// land-block elimination by default, or the fully-replicated baseline
	// (every rank holds the whole grid) under WithOcnDecomp(false). The
	// distributed atmosphere's coupling routers address ocean columns by
	// owner, which a replicated ocean does not define — that combination
	// is rejected rather than silently misrouted.
	atmDistributed := opt.atmDecomp && c.Size() > 1 && c.Size() <= atm.Mesh.NCells()
	if atmDistributed && !opt.ocnDecomp {
		return nil, fmt.Errorf("core: the decomposed atmosphere requires the decomposed ocean at %d ranks (enable -ocn-decomp or disable -atm-decomp)", c.Size())
	}
	var blk *grid.TripolarDecomp
	if opt.ocnDecomp && c.Size() > 1 {
		blk, err = grid.NewTripolarDecomp(g, c, 1)
	} else {
		blk, err = grid.NewTripolarReplicated(g, c, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("core: ocean decomposition: %w", err)
	}
	blk.SetObserver(ob)
	blk.SetWire(opt.wire)
	ocnCfg := cfg.OcnCfg
	ocnCfg.Policy = cfg.Policy
	ocn, err := ocean.New(g, blk, ocnCfg, sp)
	if err != nil {
		return nil, fmt.Errorf("core: ocean: %w", err)
	}
	ice, err := seaice.New(g, blk, cfg.IceCfg)
	if err != nil {
		return nil, fmt.Errorf("core: sea ice: %w", err)
	}
	lnd, err := land.New(atm.Mesh, land.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("core: land: %w", err)
	}

	// Coupling clock: the base step is the shortest coupling period.
	baseStep, err := coupler.PeriodForCouplingsPerDay(cfg.AtmCouplingsPerDay)
	if err != nil {
		return nil, err
	}
	clk, err := coupler.NewClock(start, stop, baseStep)
	if err != nil {
		return nil, err
	}
	for name, perDay := range map[string]int{
		"atm": cfg.AtmCouplingsPerDay,
		"ocn": cfg.OcnCouplingsPerDay,
		"ice": cfg.IceCouplingsPerDay,
	} {
		p, err := coupler.PeriodForCouplingsPerDay(perDay)
		if err != nil {
			return nil, err
		}
		if err := clk.AddAlarm(name, p); err != nil {
			return nil, err
		}
	}

	e := &ESM{
		Cfg: cfg, Comm: c,
		Atm: atm, Ocn: ocn, Ice: ice, Lnd: lnd,
		Rg:    NewRegridder(atm.Mesh, g),
		Clock: clk,
		obs:   ob,
		remap: opt.remap,
		wire:  opt.wire,
	}

	// Route the unmapped atmosphere cells — non-land cells whose spiral
	// search found no wet ocean column — to the land model so their surface
	// exchange is never silently dropped: the land model adopts them and the
	// atmosphere treats them as land columns.
	if len(e.Rg.Unmapped) > 0 {
		lnd.Adopt(atm.Mesh, e.Rg.Unmapped)
		for _, cell := range e.Rg.Unmapped {
			atm.IsLand[cell] = true
		}
	}
	if opt.remap == RemapCons || opt.audit {
		e.af = newAtmFluxes(atm.Mesh.NCells())
	}
	if opt.audit {
		e.ledger = budget.NewLedger(ob)
	}

	// Atmosphere + land domain decomposition: partition the icosahedral
	// cells into compact owned patches (recursive coordinate bisection),
	// register the halo-exchange plans with the atmosphere, split the land
	// columns with the same ownership map (after Adopt, so adopted cells
	// are partitioned too), and build the distributed-coupling routers. Replicated operation — one rank, or
	// WithAtmDecomp(false) — leaves dec nil and every legacy path intact.
	e.u10 = make([]float64, atm.Mesh.NCells())
	e.v10 = make([]float64, atm.Mesh.NCells())
	if atmDistributed {
		d, err := atm.Decompose(c)
		if err != nil {
			return nil, fmt.Errorf("core: atmosphere decomposition: %w", err)
		}
		d.SetObserver(ob)
		d.SetWire(opt.wire)
		e.dec = d
		e.stepSlots = lnd.Slots(d.InExt)
		e.ownSlots = lnd.Slots(func(cell int) bool { return d.Owner(cell) == c.Rank() })
		if err := e.initDistribute(); err != nil {
			return nil, err
		}
	}

	// Ocean steps per ocean coupling interval.
	ocnInterval := 86400.0 / float64(cfg.OcnCouplingsPerDay)
	e.ocnStepsPer = int(math.Round(ocnInterval / ocn.Cfg.DtBaroclinic))
	if e.ocnStepsPer < 1 {
		e.ocnStepsPer = 1
	}

	// Validate the exchange contract once at init (the paper's naming and
	// dimension-alignment checks).
	if err := coupler.ValidateExchange([]coupler.Registration{
		{Comp: &atmComp{e}, CouplingsPerDay: cfg.AtmCouplingsPerDay},
		{Comp: &ocnComp{e}, CouplingsPerDay: cfg.OcnCouplingsPerDay},
		{Comp: &iceComp{e}, CouplingsPerDay: cfg.IceCouplingsPerDay},
	}); err != nil {
		return nil, err
	}

	// Initial surface fields.
	e.sstGlobal = make([]float64, g.NX*g.NY)
	e.iceGlobal = make([]float64, g.NX*g.NY)
	e.refreshOceanSurface()
	e.applySurfaceToAtmos()
	return e, nil
}

// factorize picks a process grid (px, py) with px·py = n that divides the
// ocean grid.
func factorize(n, nx, ny int) (int, int) {
	best := [2]int{1, n}
	for px := 1; px <= n; px++ {
		if n%px != 0 {
			continue
		}
		py := n / px
		if nx%px == 0 && ny%py == 0 {
			best = [2]int{px, py}
			// Prefer near-square factorizations.
			if abs(px-py) <= abs(best[0]-best[1]) {
				best = [2]int{px, py}
			}
		}
	}
	return best[0], best[1]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Step advances one coupling interval; returns false when the clock is done.
//
// Every base step runs one dataflow, in this order: (1) when the ocean
// couples this interval, import its air–sea fluxes from the currently
// exported surface state — the previous interval's export, which stays
// frozen until the export phase (the import barrier) — and run its
// baroclinic substeps; (2) advance the atmosphere + land group; (3) couple
// the sea ice and export the new ocean surface to the atmosphere (the
// export barrier). The ocean and atmosphere groups read and write disjoint
// state between the two barriers.
func (e *ESM) Step() bool {
	ringing, ok := e.Clock.Advance()
	if !ok {
		return false
	}
	var atmRings, iceRings, ocnRings bool
	for _, name := range ringing {
		switch name {
		case "atm":
			atmRings = true
		case "ice":
			iceRings = true
		case "ocn":
			ocnRings = true
		}
	}
	if ocnRings {
		e.timed("ocn", func() {
			e.oceanImport()
			e.oceanSubsteps()
		})
	}
	if atmRings {
		e.timed("atm", e.atmosphereStep)
	}
	if iceRings {
		e.timed("ice", e.iceStep)
	}
	e.couplingSteps++
	e.publishWireRatio()
	if f := fault.PointScoped(e.Comm.Member(), "esm.step", e.Comm.Rank()); f != nil && f.Kind == fault.NaN {
		// Silent data corruption in a coupled prognostic field — the failure
		// mode the per-step health guardrails exist to catch.
		e.Ocn.T[e.ocnIdx2(0, 0)] = math.NaN()
	}
	return true
}

// publishWireRatio updates the cpl.wire.ratio gauge — cumulative raw bytes
// over cumulative on-the-wire bytes across every compressed-capable path
// (both halo exchanges and the rearrangers, the exempt conservative router
// included at ratio 1). Only published under the compressed wire format and
// only when the observer carries a readable registry; under WireF64 the
// ratio is identically 1 and the gauge stays absent.
func (e *ESM) publishWireRatio() {
	if e.wire != par.WireGS32 {
		return
	}
	o, ok := e.obs.(*obs.Obs)
	if !ok {
		return
	}
	raw := o.Registry().Counter("cpl.wire.raw.bytes").Value()
	wireB := o.Registry().Counter("cpl.wire.bytes").Value()
	if wireB > 0 {
		e.obs.SetGauge("cpl.wire.ratio", float64(raw)/float64(wireB))
	}
}

// RunDays integrates n simulated days (or until the clock stops).
func (e *ESM) RunDays(days float64) int {
	steps := int(days * float64(e.Cfg.AtmCouplingsPerDay))
	n := 0
	for i := 0; i < steps; i++ {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// atmosphereStep runs one atmosphere model step plus the direct land
// exchange (the land model bypasses the coupler, §5.1.1). Decomposed, every
// rank steps its own patch and the halo exchanges inside StepModel are the
// only cross-rank traffic; replicated, every rank computes the atmosphere
// redundantly.
func (e *ESM) atmosphereStep() {
	e.Atm.StepModel()
	e.landStep()
}

// landStep runs the direct atmosphere ↔ land exchange on land cells.
// Replicated, every rank steps every land column from the (identical)
// atmosphere state. Decomposed, each rank steps the land columns of its
// extended patch: owned cells for real, halo cells redundantly — the halo's
// atmosphere forcing is bit-identical to the owner's, so the skin
// temperature the redundant physics columns read matches the owner exactly.
func (e *ESM) landStep() {
	nc := e.Atm.Mesh.NCells()
	kb := e.Atm.NLev - 1
	e.Atm.Wind10mInto(e.u10, e.v10)
	u10, v10 := e.u10, e.v10
	dt := 86400.0 / float64(e.Cfg.AtmCouplingsPerDay)
	step := func(c int) {
		f := land.Forcing{
			GSW:    e.Atm.GSW[c],
			GLW:    e.Atm.GLW[c],
			TAir:   e.Atm.T[kb*nc+c],
			QAir:   e.Atm.Qv[kb*nc+c],
			Wind:   math.Hypot(u10[c], v10[c]),
			Precip: e.Atm.Precip[c],
			PSfc:   e.Atm.Ps[c],
		}
		resp, err := e.Lnd.StepCell(c, f, dt)
		if err == nil {
			// The land skin temperature is the surface the atmosphere sees.
			e.Atm.SST[c] = resp.TSkin
		}
	}
	if e.dec == nil {
		for _, c := range e.Lnd.Cells {
			step(c)
		}
		return
	}
	for _, slot := range e.stepSlots {
		step(e.Lnd.Cells[slot])
	}
}

// iceStep imports atmosphere and ocean state into the ice model, steps it,
// and refreshes the global ice fraction. Decomposed, the atmosphere forcing
// arrives through the nearest-neighbour rearranger (no rank holds the whole
// atmosphere); replicated, it is read from the local (identical) arrays.
func (e *ESM) iceStep() {
	if e.dec != nil {
		e.iceForcingDistributed()
	} else {
		ice := e.Ice
		b := ice.B
		nc := e.Atm.Mesh.NCells()
		e.Atm.Wind10mInto(e.u10, e.v10)
		kb := e.Atm.NLev - 1
		for lj := 0; lj < b.NJ; lj++ {
			for li := 0; li < b.NI; li++ {
				idx := b.LIdx(li, lj)
				gi := b.GIdx(li, lj)
				ac := e.Rg.OcnToAtm[gi]
				ice.TAir[idx] = e.Atm.T[kb*nc+ac]
				ice.WindU[idx] = e.u10[ac]
				ice.WindV[idx] = e.v10[ac]
				ice.SST[idx] = e.Ocn.T[e.ocnIdx2(li, lj)] + 273.15
			}
		}
	}
	e.Ice.Step()
	e.refreshOceanSurface()
	e.applySurfaceToAtmos()
}

// Bulk air–sea flux constants, shared by the ocean-grid (nearest) and
// atmosphere-grid (conservative) flux computations.
const (
	oceanAlbedo = 0.07
	oceanEmiss  = 0.97
	sigmaSB     = 5.670e-8
	bulkCd      = 1.3e-3
	bulkCh      = 1.0e-3
	bulkCe      = 1.2e-3
	rhoAirSfc   = 1.2
)

// oceanImport is the ocean group's import barrier — the flux coupler's job
// in CPL7: compute the air–sea fluxes and hand them to the ocean. Everything
// it reads from the atmosphere and ice is the state exported at the end of
// the previous base step, so it runs before the components advance. RemapNN
// computes fluxes on the ocean grid from the nearest atmosphere cell;
// RemapCons computes them per atmosphere cell and delivers the conservative
// overlap average. When auditing, the ledger records the interval's
// interface and storage terms afterwards.
func (e *ESM) oceanImport() {
	if e.af != nil {
		e.computeAtmFluxes()
	}
	switch {
	case e.remap == RemapCons && e.dec != nil:
		e.importConservativeDistributed()
	case e.remap == RemapCons:
		e.importConservative()
	case e.dec != nil:
		e.importNearestDistributed()
	default:
		e.importNearest()
	}
	if e.ledger != nil {
		e.auditRecord()
	}
}

// importNearest computes the air–sea fluxes on the ocean grid: turbulent
// fluxes use the atmosphere's lowest-level state at the nearest cell
// together with the ocean's *own* SST, so coastal columns are never
// contaminated by land skin temperatures. Spot-accurate, but the
// area-integrated flux differs from what the atmosphere exports — the leak
// the budget ledger measures and RemapCons closes.
func (e *ESM) importNearest() {
	o := e.Ocn
	b := o.B
	nc := e.Atm.Mesh.NCells()
	kb := e.Atm.NLev - 1
	u10, v10 := e.Atm.Wind10m()
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			if !o.G.Mask[gi] {
				continue
			}
			ac := e.Rg.OcnToAtm[gi]
			open := 1 - e.Ice.Conc[idx]
			sstK := o.T[idx] + 273.15
			wind := math.Hypot(u10[ac], v10[ac])
			tair := e.Atm.T[kb*nc+ac]
			qair := e.Atm.Qv[kb*nc+ac]

			// Momentum: bulk stress from the local wind, attenuated by ice.
			o.TauX[idx] = rhoAirSfc * bulkCd * wind * u10[ac] * open
			o.TauY[idx] = rhoAirSfc * bulkCd * wind * v10[ac] * open

			// Turbulent heat fluxes against the ocean's own SST.
			shf := rhoAirSfc * atmos.Cpd * bulkCh * wind * (sstK - tair)
			evap := rhoAirSfc * bulkCe * wind * (qsatSea(sstK) - qair)
			if evap < 0 {
				evap = 0
			}
			lhf := atmos.LatVap * evap

			qnet := (1-oceanAlbedo)*e.Atm.GSW[ac] +
				oceanEmiss*(e.Atm.GLW[ac]-sigmaSB*sstK*sstK*sstK*sstK) -
				shf - lhf
			o.QHeat[idx] = qnet*open + e.Ice.FreezeHeat[idx]
			// Freshwater: (evaporation − precipitation) concentrates salt.
			emp := evap - e.Atm.Precip[ac]
			o.FWFlux[idx] = ocean.SRef * emp / (ocean.Rho0 * firstLayerDepth(o))
		}
	}
}

// computeAtmFluxes fills the per-atmosphere-cell flux parts from the
// atmosphere-visible surface state (its imported SST and ice fraction), with
// the open-water fraction folded in. Land and zero-overlap cells hold zero
// — destination-area normalization: their overlap weight stays in the
// conservative rows, damping coastal fluxes instead of breaking the
// conservation identity.
func (e *ESM) computeAtmFluxes() {
	nc := e.Atm.Mesh.NCells()
	e.Atm.Wind10mInto(e.u10, e.v10)
	ranges := [][2]int{{0, nc}}
	if e.dec != nil {
		// Owned cells only: the flux parts feed the audit's owned-range
		// partial sums and the conservative packer, both owner-indexed.
		ranges = e.dec.OwnedRanges()
	}
	for _, rng := range ranges {
		for c := rng[0]; c < rng[0]+rng[1]; c++ {
			e.atmFluxCell(c)
		}
	}
}

// atmFluxCell fills one atmosphere cell's flux parts (see computeAtmFluxes).
func (e *ESM) atmFluxCell(c int) {
	a := e.Atm
	nc := a.Mesh.NCells()
	kb := a.NLev - 1
	u10, v10 := e.u10, e.v10
	f := e.af
	if a.IsLand[c] || e.Rg.AtmOverlapArea[c] == 0 {
		f.sw[c], f.lw[c], f.sens[c], f.lat[c], f.qnet[c] = 0, 0, 0, 0, 0
		f.emp[c], f.taux[c], f.tauy[c] = 0, 0, 0
		return
	}
	open := 1 - a.IceFrac[c]
	sstK := a.SST[c]
	wind := math.Hypot(u10[c], v10[c])
	tair := a.T[kb*nc+c]
	qair := a.Qv[kb*nc+c]

	shf := rhoAirSfc * atmos.Cpd * bulkCh * wind * (sstK - tair)
	evap := rhoAirSfc * bulkCe * wind * (qsatSea(sstK) - qair)
	if evap < 0 {
		evap = 0
	}
	f.sw[c] = (1 - oceanAlbedo) * a.GSW[c] * open
	f.lw[c] = oceanEmiss * (a.GLW[c] - sigmaSB*sstK*sstK*sstK*sstK) * open
	f.sens[c] = -shf * open
	f.lat[c] = -atmos.LatVap * evap * open
	f.qnet[c] = f.sw[c] + f.lw[c] + f.sens[c] + f.lat[c]
	f.emp[c] = evap - a.Precip[c]
	f.taux[c] = rhoAirSfc * bulkCd * wind * u10[c] * open
	f.tauy[c] = rhoAirSfc * bulkCd * wind * v10[c] * open
}

// importConservative delivers the per-atmosphere-cell flux parts to each
// owned wet ocean column through the normalized overlap weights, so the
// area-integrated flux the ocean imports equals what the atmosphere
// exported to round-off. The ice→ocean freeze heat is a local same-grid
// term added after the remap.
func (e *ESM) importConservative() {
	o := e.Ocn
	b := o.B
	f := e.af
	h0 := firstLayerDepth(o)
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			if !o.G.Mask[gi] {
				continue
			}
			o.TauX[idx] = e.Rg.ConsRemap(f.taux, gi)
			o.TauY[idx] = e.Rg.ConsRemap(f.tauy, gi)
			o.QHeat[idx] = e.Rg.ConsRemap(f.qnet, gi) + e.Ice.FreezeHeat[idx]
			emp := e.Rg.ConsRemap(f.emp, gi)
			o.FWFlux[idx] = ocean.SRef * emp / (ocean.Rho0 * h0)
		}
	}
}

// auditRecord tallies one coupling interval into the ledger. Replicated,
// the atmosphere-side export integrals over the overlap areas Ã_c need no
// reduction, and only the ocean-side import integrals and storage terms
// cross ranks (one batched reduction). Decomposed, the atmosphere-side
// terms, the land water, and the atmosphere water are owned-range partial
// sums too, and every term — both sides of every interface plus every
// store — travels in a single batched AllreduceSlice.
func (e *ESM) auditRecord() {
	o := e.Ocn
	b := o.B
	f := e.af
	iv := budget.Interval{
		Seconds:       86400 / float64(e.Cfg.OcnCouplingsPerDay),
		UnmappedCells: len(e.Rg.Unmapped),
	}
	// Ocean-side: undo the freshwater flux scaling to recover the delivered
	// E−P, and split the same-grid ice→ocean heat out of QHeat so the
	// interface terms compare like for like.
	empScale := ocean.Rho0 * firstLayerDepth(o) / ocean.SRef
	var heatIn, fwIn, iceHeat float64
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			if !o.G.Mask[gi] {
				continue
			}
			area := o.G.Area[gi]
			heatIn += area * (o.QHeat[idx] - e.Ice.FreezeHeat[idx])
			fwIn += area * o.FWFlux[idx] * empScale
			iceHeat += area * e.Ice.FreezeHeat[idx]
		}
	}
	const rhoWater = 1000.0
	if e.dec == nil {
		for c, ar := range e.Rg.AtmOverlapArea {
			if ar == 0 {
				continue
			}
			iv.HeatSW += ar * f.sw[c]
			iv.HeatLW += ar * f.lw[c]
			iv.HeatSens += ar * f.sens[c]
			iv.HeatLat += ar * f.lat[c]
			iv.HeatAtmCpl += ar * f.qnet[c]
			iv.HeatGross += ar * math.Abs(f.qnet[c])
			iv.FWAtmCpl += ar * f.emp[c]
			iv.FWGross += ar * math.Abs(f.emp[c])
		}
		if o.B.Replicated() {
			// Fully replicated: every term above and below is already the
			// global integral on every rank — a reduction would count the
			// domain once per rank.
			iv.HeatCplOcn, iv.FWCplOcn, iv.HeatIceOcn = heatIn, fwIn, iceHeat
			iv.OcnHeat, iv.OcnSalt = o.HeatContentLocal(), o.SaltContentLocal()
			iv.IceFW = seaice.RhoIce * e.Ice.LocalVolume()
		} else {
			sums := e.Comm.AllreduceSlice([]float64{
				heatIn, fwIn, iceHeat,
				o.HeatContentLocal(), o.SaltContentLocal(), e.Ice.LocalVolume(),
			}, par.OpSum)
			iv.HeatCplOcn, iv.FWCplOcn, iv.HeatIceOcn = sums[0], sums[1], sums[2]
			iv.OcnHeat, iv.OcnSalt = sums[3], sums[4]
			iv.IceFW = seaice.RhoIce * sums[5]
		}
		for slot, c := range e.Lnd.Cells {
			iv.LndWater += e.Lnd.Bucket[slot] * e.Atm.Mesh.AreaCell[c] *
				grid.EarthRadius * grid.EarthRadius * rhoWater
		}
		iv.AtmWater = e.Atm.TotalMoisture()
		e.ledger.Record(iv)
		return
	}
	// Decomposed: atmosphere-side partials over this rank's owned cells (the
	// owned ranges partition the mesh, so the sum over ranks reproduces the
	// replicated integrals up to summation order), batched with the
	// ocean-side terms into one 16-term reduction.
	var aSW, aLW, aSens, aLat, aCpl, aGross, aFW, aFWGross float64
	for _, rng := range e.dec.OwnedRanges() {
		for c := rng[0]; c < rng[0]+rng[1]; c++ {
			ar := e.Rg.AtmOverlapArea[c]
			if ar == 0 {
				continue
			}
			aSW += ar * f.sw[c]
			aLW += ar * f.lw[c]
			aSens += ar * f.sens[c]
			aLat += ar * f.lat[c]
			aCpl += ar * f.qnet[c]
			aGross += ar * math.Abs(f.qnet[c])
			aFW += ar * f.emp[c]
			aFWGross += ar * math.Abs(f.emp[c])
		}
	}
	var lndWater float64
	for _, slot := range e.ownSlots {
		c := e.Lnd.Cells[slot]
		lndWater += e.Lnd.Bucket[slot] * e.Atm.Mesh.AreaCell[c] *
			grid.EarthRadius * grid.EarthRadius * rhoWater
	}
	sums := e.Comm.AllreduceSlice([]float64{
		aSW, aLW, aSens, aLat, aCpl, aGross, aFW, aFWGross,
		heatIn, fwIn, iceHeat,
		o.HeatContentLocal(), o.SaltContentLocal(), e.Ice.LocalVolume(),
		lndWater, e.Atm.TotalMoistureLocal(),
	}, par.OpSum)
	iv.HeatSW, iv.HeatLW, iv.HeatSens, iv.HeatLat = sums[0], sums[1], sums[2], sums[3]
	iv.HeatAtmCpl, iv.HeatGross, iv.FWAtmCpl, iv.FWGross = sums[4], sums[5], sums[6], sums[7]
	iv.HeatCplOcn, iv.FWCplOcn, iv.HeatIceOcn = sums[8], sums[9], sums[10]
	iv.OcnHeat, iv.OcnSalt = sums[11], sums[12]
	iv.IceFW = seaice.RhoIce * sums[13]
	iv.LndWater = sums[14]
	iv.AtmWater = sums[15]
	e.ledger.Record(iv)
}

// Budget returns the conservation-audit ledger, or nil when auditing is off.
func (e *ESM) Budget() *budget.Ledger { return e.ledger }

// oceanSubsteps integrates the ocean over its coupling interval — the
// baroclinic sub-step loop. It touches only ocean state and the ocean
// block's point-to-point halo traffic; the refreshed surface is exported
// to the atmosphere afterwards in iceStep, the base step's export phase.
func (e *ESM) oceanSubsteps() {
	for s := 0; s < e.ocnStepsPer; s++ {
		e.Ocn.Step()
	}
}

func firstLayerDepth(o *ocean.Ocean) float64 { return o.G.LevelDepth[0] }

// qsatSea is the saturation specific humidity over seawater at 1000 hPa
// (98 % of pure water's, the usual salinity correction).
func qsatSea(tK float64) float64 {
	es := 610.78 * math.Exp(17.27*(tK-273.15)/(tK-35.85))
	return 0.98 * 0.622 * es / (1e5 - 0.378*es)
}

// ocnIdx2 mirrors the ocean's internal local indexing for driver reads.
func (e *ESM) ocnIdx2(li, lj int) int {
	return (lj+e.Ocn.B.H)*e.Ocn.B.LNI() + li + e.Ocn.B.H
}

// refreshOceanSurface gathers SST and ice fraction into global arrays and
// broadcasts them so every rank's (redundant) atmosphere sees the same
// surface. In the replicated-ocean mode every rank assembles the globals
// locally and no traffic is needed.
func (e *ESM) refreshOceanSurface() {
	b := e.Ocn.B
	n2 := b.LNI() * b.LNJ()
	sstLoc := make([]float64, n2)
	copy(sstLoc, e.Ocn.T[:n2])
	iceLoc := make([]float64, n2)
	copy(iceLoc, e.Ice.Conc)
	sstG := b.GatherGlobal(sstLoc)
	iceG := b.GatherGlobal(iceLoc)
	if b.Replicated() {
		e.sstGlobal, e.iceGlobal = sstG, iceG
		return
	}
	e.sstGlobal = par.Bcast(e.Comm, 0, sstG)
	e.iceGlobal = par.Bcast(e.Comm, 0, iceG)
}

// applySurfaceToAtmos maps the global ocean surface onto atmosphere cells.
func (e *ESM) applySurfaceToAtmos() {
	for c := 0; c < e.Atm.Mesh.NCells(); c++ {
		if e.Atm.IsLand[c] {
			continue // land skin temperature is owned by the land model
		}
		oc := e.Rg.AtmToOcn[c]
		if oc < 0 {
			continue
		}
		e.Atm.SST[c] = e.sstGlobal[oc] + 273.15
		e.Atm.IceFrac[c] = e.iceGlobal[oc]
	}
}

// CouplingSteps returns the number of completed coupling intervals.
func (e *ESM) CouplingSteps() int { return e.couplingSteps }

// SimulatedSeconds returns the simulated time advanced so far.
func (e *ESM) SimulatedSeconds() float64 {
	return float64(e.couplingSteps) * 86400 / float64(e.Cfg.AtmCouplingsPerDay)
}

// MeasureSYPD runs n coupling steps and returns the measured
// simulated-years-per-day of this (miniature) configuration — the same
// metric the paper reports, computed the same way (§6.2), on the
// reproduction's grids.
func (e *ESM) MeasureSYPD(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: need at least one step")
	}
	startWall := time.Now()
	simStart := e.SimulatedSeconds()
	for i := 0; i < n; i++ {
		if !e.Step() {
			return 0, fmt.Errorf("core: clock exhausted after %d steps", i)
		}
	}
	wall := time.Since(startWall).Seconds()
	sim := e.SimulatedSeconds() - simStart
	if wall <= 0 {
		return math.Inf(1), nil
	}
	return (sim / wall) * 86400 / (365 * 86400), nil
}
