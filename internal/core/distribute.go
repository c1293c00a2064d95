package core

import (
	"fmt"
	"math"

	"repro/internal/atmos"
	"repro/internal/coupler"
	"repro/internal/ocean"
)

// The distributed coupling path: with the atmosphere domain-decomposed, no
// rank holds the whole atmosphere any more, so the atm→ocn side of the
// coupler cannot read arbitrary atmosphere cells locally. The fluxes are
// routed through coupler.Router rearranges instead:
//
//   - nearest-neighbour mode rearranges the 7 per-column atmosphere inputs
//     (u10, v10, tair, qair, gsw, glw, precip) from the atmosphere's cell
//     ownership to the ocean's block ownership over the global ocean-column
//     index space, and the bulk formulas then run unchanged on the ocean
//     side — bit-identical to the replicated path because the formulas see
//     the same operands;
//   - conservative mode rearranges the CSR weight products w_p·f(col_p)
//     over the global index space of CSR entries, so each owned wet column
//     sums its row's terms in the same left-to-right order ConsRemap uses —
//     again bit-identical;
//   - the ice forcing (tair, u10, v10 at the nearest atmosphere cell)
//     reuses the nearest-neighbour router with a 3-field vector each base
//     step.
//
// The ocn→atm surface return stays replicated (refreshOceanSurface gathers
// and broadcasts SST/ice), which keeps the ring-1 halo's SST valid for the
// redundant physics columns without an extra exchange.
//
// All vectors are persistent, so the per-step pack/rearrange/consume cycle
// is allocation-free in steady state (the rearranger's own guarantee plus
// the preallocated AttrVects here).

var nnFields = []string{"u10", "v10", "tair", "qair", "gsw", "glw", "precip"}
var iceFields = []string{"tair", "u10", "v10"}
var consFields = []string{"taux", "tauy", "qnet", "emp"}

type distState struct {
	// Nearest-neighbour router over the global ocean-column space:
	// src owner(gi) = atm owner of OcnToAtm[gi], dst owner(gi) = ocean block
	// owner of column gi.
	nnRouter *coupler.Router
	nnSrcIdx []int // global ocean columns packed by this rank, ascending
	nnSrc    *coupler.AttrVect
	nnDst    *coupler.AttrVect
	iceSrc   *coupler.AttrVect
	iceDst   *coupler.AttrVect

	// Conservative router over the global CSR-entry space: src owner(p) =
	// atm owner of ConsCol[p], dst owner(p) = ocean block owner of the row
	// (wet column) entry p belongs to. Nil unless -remap=cons.
	consRouter *coupler.Router
	consSrcIdx []int
	consSrc    *coupler.AttrVect
	consDst    *coupler.AttrVect
}

// ocnColOwner returns the rank owning global ocean column gi under the 2D
// tripolar block decomposition, or -1 for columns of land-eliminated blocks
// — those columns appear in no GSMap and are never routed (their field
// values are identically zero).
func (e *ESM) ocnColOwner(gi int) int { return e.Ocn.B.Owner(gi) }

// initDistribute builds the rearrange plans once at assembly. Both GSMaps of
// each router are derived offline from rank-independent data, so every rank
// computes identical maps with no communication (§5.2.4's offline path).
func (e *ESM) initDistribute() error {
	d := e.dec
	c := e.Comm
	n := c.Size()
	nCol := e.Ocn.G.NX * e.Ocn.G.NY

	atmOwnerOfCol := func(gi int) int {
		if e.ocnColOwner(gi) < 0 {
			return -1 // land-eliminated destination column: filter at the source too
		}
		return d.Owner(e.Rg.OcnToAtm[gi])
	}
	srcMap, err := coupler.OfflineGSMap(atmOwnerOfCol, nCol, n)
	if err != nil {
		return fmt.Errorf("core: nn source map: %w", err)
	}
	dstMap, err := coupler.OfflineGSMap(e.ocnColOwner, nCol, n)
	if err != nil {
		return fmt.Errorf("core: nn destination map: %w", err)
	}
	rt, err := coupler.BuildRouter(c, srcMap, dstMap)
	if err != nil {
		return fmt.Errorf("core: nn router: %w", err)
	}
	// The nearest-neighbour router (shared by the nn flux inputs and the ice
	// forcing) follows the session wire format.
	rt.SetWire(e.wire)
	ds := &distState{nnRouter: rt, nnSrcIdx: srcMap.LocalIndices(c.Rank())}
	if ds.nnSrc, err = coupler.NewAttrVect(nnFields, rt.NSrc); err != nil {
		return err
	}
	if ds.nnDst, err = coupler.NewAttrVect(nnFields, rt.NDst); err != nil {
		return err
	}
	if ds.iceSrc, err = coupler.NewAttrVect(iceFields, rt.NSrc); err != nil {
		return err
	}
	if ds.iceDst, err = coupler.NewAttrVect(iceFields, rt.NDst); err != nil {
		return err
	}

	if e.remap == RemapCons {
		np := len(e.Rg.ConsCol)
		// rowOf maps a CSR entry to its wet column; ConsPtr is monotone over
		// gi, so a single forward walk assigns every entry.
		rowOf := make([]int32, np)
		for gi := 0; gi < nCol; gi++ {
			for p := e.Rg.ConsPtr[gi]; p < e.Rg.ConsPtr[gi+1]; p++ {
				rowOf[p] = int32(gi)
			}
		}
		atmOwnerOfEntry := func(p int) int {
			if e.ocnColOwner(int(rowOf[p])) < 0 {
				return -1 // entry of a land-eliminated row: never routed
			}
			return d.Owner(int(e.Rg.ConsCol[p]))
		}
		csrc, err := coupler.OfflineGSMap(atmOwnerOfEntry, np, n)
		if err != nil {
			return fmt.Errorf("core: cons source map: %w", err)
		}
		cdst, err := coupler.OfflineGSMap(func(p int) int { return e.ocnColOwner(int(rowOf[p])) }, np, n)
		if err != nil {
			return fmt.Errorf("core: cons destination map: %w", err)
		}
		crt, err := coupler.BuildRouter(c, csrc, cdst)
		if err != nil {
			return fmt.Errorf("core: cons router: %w", err)
		}
		// The conservative router is EXEMPT from wire compression, whatever
		// WithWireCompression selected: its payloads are the weight products
		// w_p·f(col_p) whose delivered sums must reproduce the atm-side
		// integrals to round-off — quantizing them would surface as an
		// O(1e-7) relative residual in the conservation audit, far past its
		// 1e-10 gate. Flux deliveries participating in the conservation
		// identity always travel f64.
		ds.consRouter = crt
		ds.consSrcIdx = csrc.LocalIndices(c.Rank())
		if ds.consSrc, err = coupler.NewAttrVect(consFields, crt.NSrc); err != nil {
			return err
		}
		if ds.consDst, err = coupler.NewAttrVect(consFields, crt.NDst); err != nil {
			return err
		}
	}
	e.dst = ds
	return nil
}

// rearrObs returns the observer handle for rearrange accounting, or nil.
func (e *ESM) rearrObs() coupler.Observer {
	if o, ok := e.obs.(coupler.Observer); ok {
		return o
	}
	return nil
}

// importNearestDistributed is importNearest with the atmosphere inputs
// arriving by rearrange instead of by replicated-array lookup. The packed
// values are read at owned atmosphere cells only, and the consuming loop
// walks owned columns in ascending global order — the destination vector's
// layout — with a running position, so the bulk formulas see exactly the
// operands the replicated path reads.
func (e *ESM) importNearestDistributed() {
	ds := e.dst
	a := e.Atm
	nc := a.Mesh.NCells()
	kb := a.NLev - 1
	a.Wind10mInto(e.u10, e.v10)
	pu, pv := ds.nnSrc.MustField("u10"), ds.nnSrc.MustField("v10")
	pt, pq := ds.nnSrc.MustField("tair"), ds.nnSrc.MustField("qair")
	psw, plw := ds.nnSrc.MustField("gsw"), ds.nnSrc.MustField("glw")
	ppr := ds.nnSrc.MustField("precip")
	for i, gi := range ds.nnSrcIdx {
		ac := e.Rg.OcnToAtm[gi]
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
		pt[i], pq[i] = a.T[kb*nc+ac], a.Qv[kb*nc+ac]
		psw[i], plw[i] = a.GSW[ac], a.GLW[ac]
		ppr[i] = a.Precip[ac]
	}
	if err := coupler.RearrangeInto(e.Comm, ds.nnRouter, ds.nnSrc, ds.nnDst, coupler.ModeP2P, e.rearrObs()); err != nil {
		panic(fmt.Sprintf("core: nn rearrange: %v", err))
	}

	o := e.Ocn
	b := o.B
	du, dv := ds.nnDst.MustField("u10"), ds.nnDst.MustField("v10")
	dt, dq := ds.nnDst.MustField("tair"), ds.nnDst.MustField("qair")
	dsw, dlw := ds.nnDst.MustField("gsw"), ds.nnDst.MustField("glw")
	dpr := ds.nnDst.MustField("precip")
	pos := 0 // destination vectors are ascending-gi, matching the loop order
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			p := pos
			pos++
			if !o.G.Mask[gi] {
				continue
			}
			open := 1 - e.Ice.Conc[idx]
			sstK := o.T[idx] + 273.15
			wind := math.Hypot(du[p], dv[p])
			tair := dt[p]
			qair := dq[p]

			o.TauX[idx] = rhoAirSfc * bulkCd * wind * du[p] * open
			o.TauY[idx] = rhoAirSfc * bulkCd * wind * dv[p] * open

			shf := rhoAirSfc * atmos.Cpd * bulkCh * wind * (sstK - tair)
			evap := rhoAirSfc * bulkCe * wind * (qsatSea(sstK) - qair)
			if evap < 0 {
				evap = 0
			}
			lhf := atmos.LatVap * evap

			qnet := (1-oceanAlbedo)*dsw[p] +
				oceanEmiss*(dlw[p]-sigmaSB*sstK*sstK*sstK*sstK) -
				shf - lhf
			o.QHeat[idx] = qnet*open + e.Ice.FreezeHeat[idx]
			emp := evap - dpr[p]
			o.FWFlux[idx] = ocean.SRef * emp / (ocean.Rho0 * firstLayerDepth(o))
		}
	}
}

// importConservativeDistributed delivers the conservative flux remap through
// the CSR-entry router: each rank packs w_p·f(col_p) for the entries whose
// atmosphere column it owns, and each owned wet ocean column sums its row's
// delivered terms in ascending-p order — the same left-to-right order
// ConsRemap uses, so the result is bit-identical to the replicated remap.
func (e *ESM) importConservativeDistributed() {
	ds := e.dst
	f := e.af
	ptx, pty := ds.consSrc.MustField("taux"), ds.consSrc.MustField("tauy")
	pqn, pem := ds.consSrc.MustField("qnet"), ds.consSrc.MustField("emp")
	for i, p := range ds.consSrcIdx {
		col := int(e.Rg.ConsCol[p])
		w := e.Rg.ConsW[p]
		ptx[i] = w * f.taux[col]
		pty[i] = w * f.tauy[col]
		pqn[i] = w * f.qnet[col]
		pem[i] = w * f.emp[col]
	}
	if err := coupler.RearrangeInto(e.Comm, ds.consRouter, ds.consSrc, ds.consDst, coupler.ModeP2P, e.rearrObs()); err != nil {
		panic(fmt.Sprintf("core: cons rearrange: %v", err))
	}

	o := e.Ocn
	b := o.B
	h0 := firstLayerDepth(o)
	dtx, dty := ds.consDst.MustField("taux"), ds.consDst.MustField("tauy")
	dqn, dem := ds.consDst.MustField("qnet"), ds.consDst.MustField("emp")
	pos := 0 // CSR entries arrive ascending-p = ascending (row, within-row)
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			gi := b.GIdx(li, lj)
			nrow := int(e.Rg.ConsPtr[gi+1] - e.Rg.ConsPtr[gi])
			if !o.G.Mask[gi] {
				pos += nrow // dry rows are empty, but keep the walk exact
				continue
			}
			var taux, tauy, qnet, emp float64
			for k := 0; k < nrow; k++ {
				taux += dtx[pos]
				tauy += dty[pos]
				qnet += dqn[pos]
				emp += dem[pos]
				pos++
			}
			o.TauX[idx] = taux
			o.TauY[idx] = tauy
			o.QHeat[idx] = qnet + e.Ice.FreezeHeat[idx]
			o.FWFlux[idx] = ocean.SRef * emp / (ocean.Rho0 * h0)
		}
	}
}

// iceForcingDistributed routes the ice model's atmosphere forcing (air
// temperature and 10 m wind at each column's nearest atmosphere cell)
// through the nearest-neighbour router, replacing iceStep's replicated
// lookups.
func (e *ESM) iceForcingDistributed() {
	ds := e.dst
	a := e.Atm
	nc := a.Mesh.NCells()
	kb := a.NLev - 1
	a.Wind10mInto(e.u10, e.v10)
	pt := ds.iceSrc.MustField("tair")
	pu, pv := ds.iceSrc.MustField("u10"), ds.iceSrc.MustField("v10")
	for i, gi := range ds.nnSrcIdx {
		ac := e.Rg.OcnToAtm[gi]
		pt[i] = a.T[kb*nc+ac]
		pu[i], pv[i] = e.u10[ac], e.v10[ac]
	}
	if err := coupler.RearrangeInto(e.Comm, ds.nnRouter, ds.iceSrc, ds.iceDst, coupler.ModeP2P, e.rearrObs()); err != nil {
		panic(fmt.Sprintf("core: ice rearrange: %v", err))
	}

	ice := e.Ice
	b := ice.B
	dt := ds.iceDst.MustField("tair")
	du, dv := ds.iceDst.MustField("u10"), ds.iceDst.MustField("v10")
	pos := 0
	for lj := 0; lj < b.NJ; lj++ {
		for li := 0; li < b.NI; li++ {
			idx := b.LIdx(li, lj)
			ice.TAir[idx] = dt[pos]
			ice.WindU[idx] = du[pos]
			ice.WindV[idx] = dv[pos]
			ice.SST[idx] = e.Ocn.T[e.ocnIdx2(li, lj)] + 273.15
			pos++
		}
	}
}
