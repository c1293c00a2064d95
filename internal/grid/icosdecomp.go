package grid

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/par"
	"repro/internal/precision"
)

// IcosDecomp is the icosahedral-mesh analogue of the tripolar Block: a
// spatially compact domain decomposition of the atmosphere's cells across the
// communicator, with precomputed halo adjacency and an allocation-free halo
// exchange over par point-to-point messages.
//
// Ownership is by recursive coordinate bisection (RCB) of the cell centres:
// the cell set is split along the Cartesian axis of its largest extent, the
// lower side taking ⌊len·⌊n/2⌋/n⌋ cells for the first ⌊n/2⌋ of its n ranks
// (coordinate ties broken by cell index), and each side recurses until one
// rank is left. Every cell is owned by exactly one rank, no rank holds more
// than ⌈N/size⌉ cells for any rank count, dividing or not, and each rank's
// region is a compact patch of the sphere, so its ring-1 halo is a thin
// boundary strip. (Cell indices follow the mesh's bisection generation
// order, which scatters index ranges over the whole globe.) The partition
// is a pure function of the mesh and the rank count: every rank computes
// the identical owner table offline, and Owned lists this rank's cells in
// ascending global order, so every iteration set stays ascending.
//
// The stencil closure of the dycore fixes the derived sets:
//
//   - ExtCells: owned cells plus the first ring of neighbours (HaloCells) —
//     where cell-centred diagnostics (tv, phi, ke, div, θ) and the
//     redundantly-computed physics columns must be valid;
//   - CompEdges: edges with at least one owned endpoint. Adjacent ranks
//     compute these redundantly from identical inputs, which keeps the
//     overlap bit-identical without any edge-tendency exchange;
//   - ExtEdges: every edge of an ExtCell — where the velocity must be valid
//     before a substep;
//   - RecvEdges: ExtEdges \ CompEdges, received from the rank that owns the
//     edge (the owner of its first cell; CellsOnEdge is normalized c1 < c2,
//     so edge ownership is well defined and identical on every rank);
//   - CompVerts: the vertices of CompEdges. Every cell and edge their
//     stencils touch lies in ExtCells/ExtEdges, so vorticity needs no
//     exchange either;
//   - OwnEdges: edges whose first cell is owned — a partition of the edge
//     set, used for restart writes.
//
// The exchange plans are built offline and symmetrically: every rank derives
// every rank's halo from the same mesh and the same owner table, so the
// send and receive lists of a pair agree without any negotiation traffic
// (the MCT GSMap trick applied to the mesh halo).
type IcosDecomp struct {
	M    *IcosMesh
	comm *par.Comm

	owner []int32 // [nCells] owning rank of every cell, identical on every rank
	Owned []int   // this rank's owned cells, ascending

	ExtCells  []int // owned ∪ ring-1 halo, ascending
	HaloCells []int // ring-1 halo only, ascending
	CompEdges []int // edges with ≥1 owned endpoint, ascending
	ExtEdges  []int // edges of ExtCells, ascending
	RecvEdges []int // ExtEdges \ CompEdges, ascending
	CompVerts []int // vertices of CompEdges, ascending
	OwnEdges  []int // edges with owned first cell, ascending

	inExtCell []bool
	inExtEdge []bool

	// Symmetrized peer set (ascending): the union of every rank this rank
	// exchanges cells or edges with in either direction. Each exchange call
	// sends exactly one (possibly empty) message to, and receives exactly one
	// from, every peer — the invariant that makes the two-deep parity buffer
	// pipeline safe without a barrier.
	Peers []int

	cellSend [][]int // per peer: owned cells to pack, ascending
	cellRecv [][]int // per peer: halo cells to fill, ascending
	edgeSend [][]int // per peer: computed edges to pack, ascending
	edgeRecv [][]int // per peer: stale edges to fill, ascending

	// Parity double buffers, per exchange class: an exchange alternates
	// buffer sets, and a peer is guaranteed to have drained parity-p's
	// previous message before this rank repacks it (its own call n+1 cannot
	// have completed otherwise), so steady-state exchanges allocate nothing.
	cellBuf [2][][]float64
	edgeBuf [2][][]float64
	cellPar int
	edgePar int

	// Compressed wire format state: persistent per-peer group-scaled
	// encodings under the same parity discipline as the f64 staging buffers
	// (the peer has drained parity-p's previous encoding before we re-encode
	// into it), plus one decode scratch reused across the sequential receive
	// loop. All lazily grown, zero steady-state allocations.
	wire   par.WireFormat
	cellGS [2][]*precision.GroupScaled
	edgeGS [2][]*precision.GroupScaled
	rbuf   []float64

	ownedRanges [][2]int // cached runs of Owned for Decomp

	obs HaloObserver
}

// IcosDecomp implements the shared Decomp contract (and EdgeDecomp for its
// edge partition), so core's restart/snapshot/audit paths need no
// mesh-specific type assertions.
var (
	_ Decomp     = (*IcosDecomp)(nil)
	_ EdgeDecomp = (*IcosDecomp)(nil)
)

// HaloObserver is the instrumentation hook of the halo exchange — the
// structural subset of obs.Observer the grid layer needs, declared locally
// to keep the dependency order (obs sits above par, beside grid).
type HaloObserver interface {
	AddCount(name string, delta int64)
}

// exchange message tags: disjoint from the tripolar Block's 1000–1004, the
// tripolar decomposition's 2000–2004 and the coupler rearranger's 7100.
// Point-to-point matching is per (source, tag) on mailboxes every component
// shares, so an atmosphere halo message can never be consumed by another
// component's exchange.
const (
	tagHaloCells = 6000
	tagHaloEdges = 6001
)

// NewIcosDecomp partitions the mesh across the communicator and precomputes
// the halo sets and symmetric exchange plans. Every rank must call it
// (collective only in the trivial sense: no traffic, identical offline
// construction).
func NewIcosDecomp(mesh *IcosMesh, comm *par.Comm) (*IcosDecomp, error) {
	size, rank := comm.Size(), comm.Rank()
	nc := mesh.NCells()
	if size > nc {
		return nil, fmt.Errorf("grid: %d ranks exceed %d cells", size, nc)
	}
	d := &IcosDecomp{M: mesh, comm: comm, owner: rcbOwners(mesh.CellCenter, size)}
	// Per-rank owned lists, ascending: one pass over the owner table.
	owned := make([][]int, size)
	for c, o := range d.owner {
		owned[o] = append(owned[o], c)
	}
	d.Owned = owned[rank]

	owner := d.Owner
	// Per-rank ring-1 halo cells, from one pass over the cross-owner
	// adjacencies. halo[r] is rank r's halo, identical on every rank.
	halo := make([][]int, size)
	seen := make([]int, nc) // rank+1 markers, avoids clearing between ranks
	for r := 0; r < size; r++ {
		for _, c := range owned[r] {
			for _, nb := range mesh.CellsOnCell[c] {
				if owner(nb) != r && seen[nb] != r+1 {
					seen[nb] = r + 1
					halo[r] = append(halo[r], nb)
				}
			}
		}
	}
	for r := range halo {
		slices.Sort(halo[r])
	}
	d.HaloCells = halo[rank]
	d.ExtCells = mergeSorted(d.Owned, d.HaloCells)
	d.inExtCell = make([]bool, nc)
	for _, c := range d.ExtCells {
		d.inExtCell[c] = true
	}

	ne := mesh.NEdges()
	// Edge sets for this rank.
	inComp := make([]bool, ne)
	for _, c := range d.Owned {
		for _, e := range mesh.EdgesOnCell[c] {
			inComp[e] = true
		}
	}
	d.inExtEdge = make([]bool, ne)
	for _, c := range d.ExtCells {
		for _, e := range mesh.EdgesOnCell[c] {
			d.inExtEdge[e] = true
		}
	}
	for e := 0; e < ne; e++ {
		if inComp[e] {
			d.CompEdges = append(d.CompEdges, e)
		}
		if d.inExtEdge[e] {
			d.ExtEdges = append(d.ExtEdges, e)
			if !inComp[e] {
				d.RecvEdges = append(d.RecvEdges, e)
			}
		}
		if owner(mesh.CellsOnEdge[e][0]) == rank {
			d.OwnEdges = append(d.OwnEdges, e)
		}
	}
	inCompVert := make([]bool, mesh.NVertices())
	for _, e := range d.CompEdges {
		inCompVert[mesh.VerticesOnEdge[e][0]] = true
		inCompVert[mesh.VerticesOnEdge[e][1]] = true
	}
	for v := range inCompVert {
		if inCompVert[v] {
			d.CompVerts = append(d.CompVerts, v)
		}
	}

	// Cell exchange plan. Rank s sends owned cell c to rank r exactly when
	// c ∈ halo[r]; both sides enumerate halo[r] in ascending order, so the
	// packed layouts agree.
	cellSendTo := make([][]int, size)
	cellRecvFrom := make([][]int, size)
	for r := 0; r < size; r++ {
		for _, h := range halo[r] {
			o := owner(h)
			if r == rank {
				cellRecvFrom[o] = append(cellRecvFrom[o], h)
			}
			if o == rank && r != rank {
				cellSendTo[r] = append(cellSendTo[r], h)
			}
		}
	}

	// Edge exchange plan: rank r's RecvEdges are the edges of r's ExtCells
	// with no endpoint owned by r; each is sent by the owner of its first
	// cell. Derived for every rank from the same data, so the plan is
	// symmetric by construction.
	edgeSendTo := make([][]int, size)
	edgeRecvFrom := make([][]int, size)
	extEdgeOf := make([]int, 0, len(d.ExtEdges)) // scratch, reused per rank
	inExtR := make([]int, ne)                    // rank+1 markers, avoids clearing
	for r := 0; r < size; r++ {
		extEdgeOf = extEdgeOf[:0]
		collect := func(c int) {
			for _, e := range mesh.EdgesOnCell[c] {
				if inExtR[e] != r+1 {
					inExtR[e] = r + 1
					extEdgeOf = append(extEdgeOf, e)
				}
			}
		}
		for _, c := range owned[r] {
			collect(c)
		}
		for _, c := range halo[r] {
			collect(c)
		}
		slices.Sort(extEdgeOf)
		for _, e := range extEdgeOf {
			c1, c2 := mesh.CellsOnEdge[e][0], mesh.CellsOnEdge[e][1]
			if owner(c1) == r || owner(c2) == r {
				continue // r computes this edge itself
			}
			src := owner(c1)
			if r == rank {
				edgeRecvFrom[src] = append(edgeRecvFrom[src], e)
			}
			if src == rank && r != rank {
				edgeSendTo[r] = append(edgeSendTo[r], e)
			}
		}
	}

	// Symmetrize the peer set: one send and one receive per peer per
	// exchange, empty messages allowed.
	isPeer := make([]bool, size)
	for r := 0; r < size; r++ {
		if r == rank {
			continue
		}
		if len(cellSendTo[r]) > 0 || len(cellRecvFrom[r]) > 0 ||
			len(edgeSendTo[r]) > 0 || len(edgeRecvFrom[r]) > 0 {
			isPeer[r] = true
		}
	}
	// A peer in one direction must be a peer in the other: cells are
	// symmetric by adjacency, edges need the explicit union. Every rank
	// computes the same union because every list above is derived from
	// rank-independent data.
	for r := 0; r < size; r++ {
		if isPeer[r] {
			d.Peers = append(d.Peers, r)
			d.cellSend = append(d.cellSend, cellSendTo[r])
			d.cellRecv = append(d.cellRecv, cellRecvFrom[r])
			d.edgeSend = append(d.edgeSend, edgeSendTo[r])
			d.edgeRecv = append(d.edgeRecv, edgeRecvFrom[r])
		}
	}
	for pb := 0; pb < 2; pb++ {
		d.cellBuf[pb] = make([][]float64, len(d.Peers))
		d.edgeBuf[pb] = make([][]float64, len(d.Peers))
		d.cellGS[pb] = make([]*precision.GroupScaled, len(d.Peers))
		d.edgeGS[pb] = make([]*precision.GroupScaled, len(d.Peers))
	}
	d.ownedRanges = Runs(d.Owned)
	return d, nil
}

// rcbOwners partitions points over size ranks by recursive coordinate
// bisection and returns the owning rank of every point. A set of points
// for n ranks is split along the axis of its largest coordinate extent; the
// lower ⌊len·⌊n/2⌋/n⌋ points in (coordinate, index) order go to the first
// ⌊n/2⌋ ranks, the rest to the others, and each side recurses. The integer
// split keeps every part at ⌊N/size⌋ or ⌈N/size⌉ points, and the total
// (coordinate, index) order makes the result a pure function of the
// points, identical on every rank.
func rcbOwners(pts []Vec3, size int) []int32 {
	owner := make([]int32, len(pts))
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	var split func(set []int, r0, n int)
	split = func(set []int, r0, n int) {
		if n == 1 {
			for _, c := range set {
				owner[c] = int32(r0)
			}
			return
		}
		lo, hi := pts[set[0]], pts[set[0]]
		for _, c := range set[1:] {
			p := pts[c]
			lo = Vec3{min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Z, p.Z)}
			hi = Vec3{max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z)}
		}
		coord := func(p Vec3) float64 { return p.X }
		if ey, ez := hi.Y-lo.Y, hi.Z-lo.Z; ey > hi.X-lo.X && ey >= ez {
			coord = func(p Vec3) float64 { return p.Y }
		} else if ez > hi.X-lo.X && ez > ey {
			coord = func(p Vec3) float64 { return p.Z }
		}
		slices.SortFunc(set, func(a, b int) int {
			if c := cmp.Compare(coord(pts[a]), coord(pts[b])); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		nLo := n / 2
		cut := len(set) * nLo / n
		split(set[:cut], r0, nLo)
		split(set[cut:], r0+nLo, n-nLo)
	}
	split(idx, 0, size)
	return owner
}

// Comm implements Decomp.
func (d *IcosDecomp) Comm() *par.Comm { return d.comm }

// NGlobal implements Decomp: the global cell count.
func (d *IcosDecomp) NGlobal() int { return d.M.NCells() }

// OwnedRanges implements Decomp: the ascending {start, length} runs of
// Owned. The slice is cached; callers must not mutate it.
func (d *IcosDecomp) OwnedRanges() [][2]int { return d.ownedRanges }

// OwnedEdgeList implements EdgeDecomp: the ascending edges whose first cell
// is owned — a partition of the edge set across ranks.
func (d *IcosDecomp) OwnedEdgeList() []int { return d.OwnEdges }

// Gather implements Decomp: it assembles the owned cells of a one-level
// global-layout cell field onto rank 0 (nil elsewhere). Each rank ships its
// owned values in ascending cell order; rank 0 scatters them through the
// owner table, whose per-rank cells appear in the same ascending order.
func (d *IcosDecomp) Gather(f []float64) []float64 {
	chunk := make([]float64, len(d.Owned))
	for i, c := range d.Owned {
		chunk[i] = f[c]
	}
	chunks := par.Gather(d.comm, 0, chunk)
	if d.comm.Rank() != 0 {
		return nil
	}
	out := make([]float64, d.M.NCells())
	next := make([]int, len(chunks))
	for c, o := range d.owner {
		out[c] = chunks[o][next[o]]
		next[o]++
	}
	return out
}

// Owner returns the rank owning cell c: a lookup in the RCB owner table.
func (d *IcosDecomp) Owner(c int) int { return int(d.owner[c]) }

// InExt reports whether cell c is in this rank's extended (owned + halo)
// region.
func (d *IcosDecomp) InExt(c int) bool { return d.inExtCell[c] }

// InExtEdge reports whether edge e is in this rank's extended edge set.
func (d *IcosDecomp) InExtEdge(e int) bool { return d.inExtEdge[e] }

// SetObserver attaches the halo traffic counters:
// cpl.halo.{msgs,bytes} with component="atm".
func (d *IcosDecomp) SetObserver(o HaloObserver) { d.obs = o }

// SetWire selects the halo wire format. Under par.WireGS32 every halo
// message ships as a group-scaled FP32 encoding of the packed staging
// buffer (≈ 1.94× smaller); the default par.WireF64 is bit-exact. Must not
// change mid-exchange; the core layer sets it once at assembly.
func (d *IcosDecomp) SetWire(w par.WireFormat) { d.wire = w }

// Wire returns the active halo wire format.
func (d *IcosDecomp) Wire() par.WireFormat { return d.wire }

// ExchangeCells fills the ring-1 halo of a cell-centred field with nlev
// levels laid out [k*nCells + c]: each peer receives this rank's owned
// boundary cells and contributes the halo cells it owns. Zero steady-state
// allocations; its tags are disjoint from the ocean's halo traffic.
func (d *IcosDecomp) ExchangeCells(f []float64, nlev int) {
	d.cellPar ^= 1
	d.exchange(f, nlev, d.M.NCells(), tagHaloCells, d.cellSend, d.cellRecv,
		d.cellBuf[d.cellPar], d.cellGS[d.cellPar])
}

// ExchangeEdges fills the stale extended edges of an edge field with nlev
// levels laid out [k*nEdges + e] from the edges' owning ranks. The slice may
// be a single-level window (nlev = 1) of a larger field, e.g. the lowest
// level after the physics' surface-drag projection.
func (d *IcosDecomp) ExchangeEdges(f []float64, nlev int) {
	d.edgePar ^= 1
	d.exchange(f, nlev, d.M.NEdges(), tagHaloEdges, d.edgeSend, d.edgeRecv,
		d.edgeBuf[d.edgePar], d.edgeGS[d.edgePar])
}

func (d *IcosDecomp) exchange(f []float64, nlev, stride, tag int, send, recv [][]int, bufs [][]float64, gsBufs []*precision.GroupScaled) {
	if len(f) < nlev*stride {
		panic(fmt.Sprintf("grid: halo exchange on %d values, want ≥ %d", len(f), nlev*stride))
	}
	var rawBytes, wireBytes int64
	for pi, p := range d.Peers {
		list := send[pi]
		need := nlev * len(list)
		buf := bufs[pi]
		if cap(buf) < need {
			buf = make([]float64, need)
			bufs[pi] = buf
		}
		buf = buf[:need]
		for k := 0; k < nlev; k++ {
			base := k * stride
			out := buf[k*len(list) : (k+1)*len(list)]
			for i, idx := range list {
				out[i] = f[base+idx]
			}
		}
		rawBytes += int64(8 * need)
		if d.wire == par.WireGS32 {
			gs := gsBufs[pi]
			if gs == nil {
				gs = &precision.GroupScaled{}
				gsBufs[pi] = gs
			}
			if err := precision.EncodeGroupScaledInto(gs, buf, par.WireGroup); err != nil {
				panic(err) // group size is a package constant; unreachable
			}
			par.SendGS(d.comm, p, tag, gs)
			wireBytes += int64(gs.Bytes())
		} else {
			par.SendF64(d.comm, p, tag, buf)
			wireBytes += int64(8 * need)
		}
	}
	for pi, p := range d.Peers {
		list := recv[pi]
		want := nlev * len(list)
		var msg []float64
		if d.wire == par.WireGS32 {
			gs, _, err := par.RecvGS(d.comm, p, tag)
			if err != nil {
				// ExchangeCells cannot return errors (the Decomp contract);
				// the typed error panics into core's stepChecked recover,
				// which converts it into a rollback-able step failure.
				panic(err)
			}
			if gs.N != want {
				panic(fmt.Sprintf("grid: halo message from rank %d has %d values, want %d", p, gs.N, want))
			}
			if cap(d.rbuf) < want {
				d.rbuf = make([]float64, want)
			}
			msg = d.rbuf[:want]
			if err := gs.DecodeInto(msg); err != nil {
				panic(err)
			}
		} else {
			m, _, err := par.RecvF64E(d.comm, p, tag)
			if err != nil {
				panic(err)
			}
			if len(m) != want {
				panic(fmt.Sprintf("grid: halo message from rank %d has %d values, want %d", p, len(m), want))
			}
			msg = m
		}
		for k := 0; k < nlev; k++ {
			base := k * stride
			in := msg[k*len(list) : (k+1)*len(list)]
			for i, idx := range list {
				f[base+idx] = in[i]
			}
		}
	}
	if d.obs != nil && len(d.Peers) > 0 {
		d.obs.AddCount(ctrHaloMsgsAtm, int64(len(d.Peers)))
		d.obs.AddCount(ctrHaloBytesAtm, wireBytes)
		d.obs.AddCount(ctrWireRawBytes, rawBytes)
		d.obs.AddCount(ctrWireBytes, wireBytes)
	}
}

// Unified per-component halo traffic counter names, in obs.Labeled's
// canonical labeled form (spelled literally here: grid sits beside obs in
// the dependency order and only sees the HaloObserver subset).
const (
	ctrHaloMsgsAtm  = `cpl.halo.msgs{component="atm"}`
	ctrHaloBytesAtm = `cpl.halo.bytes{component="atm"}`
	ctrHaloMsgsOcn  = `cpl.halo.msgs{component="ocn"}`
	ctrHaloBytesOcn = `cpl.halo.bytes{component="ocn"}`
)

// Wire-compression accounting: every compressed-capable path (both halo
// exchanges, the coupler rearranger) adds the payload size it would have
// shipped raw to cpl.wire.raw.bytes and the size it actually shipped to
// cpl.wire.bytes; core's step loop publishes raw/actual as the
// cpl.wire.ratio gauge. Under WireF64 the two advance in lockstep (ratio 1).
const (
	ctrWireRawBytes = "cpl.wire.raw.bytes"
	ctrWireBytes    = "cpl.wire.bytes"
)

// mergeSorted merges two ascending, disjoint int slices.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
