package grid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func icosMesh(t testing.TB, level int) *IcosMesh {
	t.Helper()
	m, err := NewIcosMesh(level)
	if err != nil {
		t.Fatalf("NewIcosMesh(%d): %v", level, err)
	}
	return m
}

// decompInvariants checks the structural contract of one rank's decomposition
// and returns the owned count for the imbalance check. It runs on a rank
// goroutine, so it reports with t.Errorf and returns at the first breach.
func decompInvariants(t *testing.T, d *IcosDecomp, rank, size int) int {
	t.Helper()
	m := d.M
	nc := m.NCells()
	// Owner covers [0, size) and agrees with the owned list: Owner(c) ==
	// rank ⇔ c ∈ Owned.
	inOwned := make([]bool, nc)
	for _, c := range d.Owned {
		inOwned[c] = true
	}
	for c := 0; c < nc; c++ {
		o := d.Owner(c)
		if o < 0 || o >= size {
			t.Errorf("rank %d: Owner(%d) = %d out of range", rank, c, o)
			return 0
		}
		if inOwned[c] != (o == rank) {
			t.Errorf("rank %d: Owner(%d)=%d disagrees with Owned membership %v", rank, c, o, inOwned[c])
			return 0
		}
	}
	// Owned is strictly ascending, and OwnedRanges are its maximal runs:
	// ascending, non-overlapping, and covering exactly Owned.
	var fromRuns []int
	prevEnd := -2
	for _, r := range d.OwnedRanges() {
		if r[1] <= 0 || r[0] <= prevEnd {
			t.Errorf("rank %d: OwnedRanges run %v not ascending, non-empty and separated (previous end %d)", rank, r, prevEnd)
			return 0
		}
		for c := r[0]; c < r[0]+r[1]; c++ {
			fromRuns = append(fromRuns, c)
		}
		prevEnd = r[0] + r[1]
	}
	if !equalInts(fromRuns, d.Owned) {
		t.Errorf("rank %d: OwnedRanges cover %d cells, want exactly the %d of Owned", rank, len(fromRuns), len(d.Owned))
		return 0
	}
	// ExtCells = owned ∪ halo, ascending, halo disjoint from owned.
	for i := 1; i < len(d.ExtCells); i++ {
		if d.ExtCells[i] <= d.ExtCells[i-1] {
			t.Errorf("rank %d: ExtCells not strictly ascending at %d", rank, i)
			return 0
		}
	}
	if len(d.ExtCells) != len(d.Owned)+len(d.HaloCells) {
		t.Errorf("rank %d: |ExtCells| %d != owned %d + halo %d", rank, len(d.ExtCells), len(d.Owned), len(d.HaloCells))
		return 0
	}
	for _, h := range d.HaloCells {
		if d.Owner(h) == rank {
			t.Errorf("rank %d: halo cell %d is owned", rank, h)
			return 0
		}
		// Every halo cell is adjacent to an owned cell.
		adj := false
		for _, nb := range m.CellsOnCell[h] {
			if d.Owner(nb) == rank {
				adj = true
			}
		}
		if !adj {
			t.Errorf("rank %d: halo cell %d not adjacent to owned region", rank, h)
			return 0
		}
	}
	// Ring-1 closure: every neighbour of an owned cell is in ExtCells.
	for _, c := range d.Owned {
		for _, nb := range m.CellsOnCell[c] {
			if !d.InExt(nb) {
				t.Errorf("rank %d: neighbour %d of owned %d missing from ExtCells", rank, nb, c)
				return 0
			}
		}
	}
	// CompEdges are exactly the edges with an owned endpoint; RecvEdges are
	// the extended edges without one; CompVerts' stencils stay inside the
	// extended sets (the no-vertex-exchange guarantee).
	for _, e := range d.CompEdges {
		c1, c2 := m.CellsOnEdge[e][0], m.CellsOnEdge[e][1]
		if d.Owner(c1) != rank && d.Owner(c2) != rank {
			t.Errorf("rank %d: CompEdge %d has no owned endpoint", rank, e)
			return 0
		}
	}
	for _, e := range d.RecvEdges {
		c1, c2 := m.CellsOnEdge[e][0], m.CellsOnEdge[e][1]
		if d.Owner(c1) == rank || d.Owner(c2) == rank {
			t.Errorf("rank %d: RecvEdge %d has an owned endpoint", rank, e)
			return 0
		}
		if !d.InExtEdge(e) {
			t.Errorf("rank %d: RecvEdge %d not in ExtEdges", rank, e)
			return 0
		}
	}
	for _, v := range d.CompVerts {
		for _, e := range m.EdgesOnVertex[v] {
			if !d.InExtEdge(e) {
				t.Errorf("rank %d: vertex %d stencil edge %d outside ExtEdges", rank, v, e)
				return 0
			}
		}
		for _, c := range m.CellsOnVertex[v] {
			if !d.InExt(c) {
				t.Errorf("rank %d: vertex %d stencil cell %d outside ExtCells", rank, v, c)
				return 0
			}
		}
	}
	return len(d.Owned)
}

// TestIcosDecompInvariants checks the decomposition contract at every rank
// count 1–7, non-powers of two included, where RCB ownership is
// non-contiguous in cell index: the structural invariants on each rank, an
// exact Gather of a global-index field, and the global ownership balance.
func TestIcosDecompInvariants(t *testing.T) {
	m := icosMesh(t, 2) // 162 cells
	nc := m.NCells()
	for _, ranks := range []int{1, 2, 3, 4, 5, 6, 7} {
		owned := make([]int, ranks)
		ownEdgeCount := make([]int, ranks)
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			owned[c.Rank()] = decompInvariants(t, d, c.Rank(), ranks)
			ownEdgeCount[c.Rank()] = len(d.OwnEdges)
			// Gather reproduces a global-index field exactly from the
			// owned values alone.
			f := make([]float64, nc)
			for i := range f {
				f[i] = math.NaN()
			}
			for _, cell := range d.Owned {
				f[cell] = float64(cell) + 0.5
			}
			g := d.Gather(f)
			if c.Rank() != 0 {
				if g != nil {
					t.Errorf("ranks=%d rank %d: Gather returned non-nil off rank 0", ranks, c.Rank())
				}
				return
			}
			for cell, v := range g {
				if v != float64(cell)+0.5 {
					t.Errorf("ranks=%d: gathered cell %d = %v, want %v", ranks, cell, v, float64(cell)+0.5)
					return
				}
			}
		})
		if t.Failed() {
			return // the global checks below would only echo a rank's failure
		}
		// Every cell owned exactly once, imbalance ≤ ceil(N/ranks).
		total, maxOwned := 0, 0
		for _, n := range owned {
			total += n
			if n > maxOwned {
				maxOwned = n
			}
		}
		if total != m.NCells() {
			t.Fatalf("ranks=%d: owned cells sum to %d, want %d", ranks, total, m.NCells())
		}
		ceil := (m.NCells() + ranks - 1) / ranks
		if maxOwned > ceil {
			t.Fatalf("ranks=%d: max owned %d exceeds ceil(N/ranks)=%d", ranks, maxOwned, ceil)
		}
		// OwnEdges partitions the edge set.
		te := 0
		for _, n := range ownEdgeCount {
			te += n
		}
		if te != m.NEdges() {
			t.Fatalf("ranks=%d: OwnEdges sum to %d, want %d", ranks, te, m.NEdges())
		}
	}
}

// TestIcosDecompHaloSymmetry checks that the exchange plans of every rank
// pair mirror each other entry for entry — rank a's send list to b is b's
// receive list from a, in identical order.
func TestIcosDecompHaloSymmetry(t *testing.T) {
	m := icosMesh(t, 2)
	for _, ranks := range []int{2, 3, 4, 5} {
		ds := make([]*IcosDecomp, ranks)
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			ds[c.Rank()] = d
		})
		peerIdx := func(d *IcosDecomp, r int) int {
			for i, p := range d.Peers {
				if p == r {
					return i
				}
			}
			return -1
		}
		for a := 0; a < ranks; a++ {
			for _, b := range ds[a].Peers {
				ia, ib := peerIdx(ds[a], b), peerIdx(ds[b], a)
				if ib < 0 {
					t.Fatalf("ranks=%d: %d peers with %d but not vice versa", ranks, a, b)
				}
				if !equalInts(ds[a].cellSend[ia], ds[b].cellRecv[ib]) {
					t.Fatalf("ranks=%d: cell plan %d→%d asymmetric: send %v recv %v",
						ranks, a, b, ds[a].cellSend[ia], ds[b].cellRecv[ib])
				}
				if !equalInts(ds[a].edgeSend[ia], ds[b].edgeRecv[ib]) {
					t.Fatalf("ranks=%d: edge plan %d→%d asymmetric: send %v recv %v",
						ranks, a, b, ds[a].edgeSend[ia], ds[b].edgeRecv[ib])
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIcosDecompPartitionProperty is the property test of the RCB owner
// table over arbitrary rank counts, including ones that do not divide the
// cell count: every cell gets a rank in [0, ranks), and every rank owns
// ⌊N/ranks⌋ or ⌈N/ranks⌉ cells.
func TestIcosDecompPartitionProperty(t *testing.T) {
	m := icosMesh(t, 2)
	nc := m.NCells()
	prop := func(seed uint16) bool {
		ranks := 1 + int(seed)%nc
		count := make([]int, ranks)
		for _, o := range rcbOwners(m.CellCenter, ranks) {
			if o < 0 || int(o) >= ranks {
				return false
			}
			count[o]++
		}
		lo, hi := nc/ranks, (nc+ranks-1)/ranks
		for _, n := range count {
			if n < lo || n > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIcosDecompCompactHalo pins the point of the RCB partition: each rank's
// region is a compact patch, so its ring-1 halo stays a thin strip. Cell
// indices follow the mesh's bisection generation order, so a contiguous
// index range scatters over the globe and its halo spans nearly the whole
// mesh (642 of 642 cells at 2 ranks on level 3). The owner table is a pure
// function of the mesh: every rank derives the same one, and rebuilding the
// decomposition reproduces it.
func TestIcosDecompCompactHalo(t *testing.T) {
	m := icosMesh(t, 3) // 642 cells
	nc := m.NCells()
	for _, ranks := range []int{2, 4} {
		ext := make([]int, ranks)
		tables := make([][]int, ranks)
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			again, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp (rebuild): %v", err)
				return
			}
			tab := make([]int, nc)
			for cell := range tab {
				tab[cell] = d.Owner(cell)
				if again.Owner(cell) != tab[cell] {
					t.Errorf("ranks=%d rank %d: rebuilt Owner(%d) = %d, want %d", ranks, c.Rank(), cell, again.Owner(cell), tab[cell])
					return
				}
			}
			tables[c.Rank()] = tab
			ext[c.Rank()] = len(d.ExtCells)
		})
		for r := 1; r < ranks; r++ {
			if !equalInts(tables[r], tables[0]) {
				t.Fatalf("ranks=%d: rank %d derived a different owner table than rank 0", ranks, r)
			}
		}
		bound := 1.4 * float64((nc+ranks-1)/ranks)
		for r, n := range ext {
			if float64(n) > bound {
				t.Errorf("ranks=%d rank %d: |ExtCells| = %d exceeds 1.4·⌈N/size⌉ = %.1f", ranks, r, n, bound)
			}
		}
		t.Logf("ranks=%d: |ExtCells| per rank %v", ranks, ext)
	}
}

// TestIcosExchangeMatchesGlobal steps a halo exchange against the brute
// force answer: cell and edge fields initialized to rank-dependent garbage
// outside the owned region must come back bit-identical to the analytic
// global field on every extended index.
func TestIcosExchangeMatchesGlobal(t *testing.T) {
	m := icosMesh(t, 2)
	nc, ne := m.NCells(), m.NEdges()
	const nlev = 3
	cellVal := func(k, c int) float64 { return float64(k*10000+c) + 0.25 }
	edgeVal := func(k, e int) float64 { return -float64(k*10000+e) - 0.75 }
	for _, ranks := range []int{2, 3, 4} {
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			fc := make([]float64, nlev*nc)
			fe := make([]float64, nlev*ne)
			for i := range fc {
				fc[i] = math.NaN()
			}
			for i := range fe {
				fe[i] = math.NaN()
			}
			for k := 0; k < nlev; k++ {
				for _, cell := range d.Owned {
					fc[k*nc+cell] = cellVal(k, cell)
				}
				for _, e := range d.CompEdges {
					fe[k*ne+e] = edgeVal(k, e)
				}
			}
			d.ExchangeCells(fc, nlev)
			d.ExchangeEdges(fe, nlev)
			for k := 0; k < nlev; k++ {
				for _, cell := range d.ExtCells {
					if got, want := fc[k*nc+cell], cellVal(k, cell); got != want {
						t.Errorf("ranks=%d rank %d: cell %d lev %d = %v, want %v", ranks, c.Rank(), cell, k, got, want)
						return
					}
				}
				for _, e := range d.ExtEdges {
					if got, want := fe[k*ne+e], edgeVal(k, e); got != want {
						t.Errorf("ranks=%d rank %d: edge %d lev %d = %v, want %v", ranks, c.Rank(), e, k, got, want)
						return
					}
				}
			}
		})
	}
}

// TestIcosExchangeZeroAllocs pins the halo exchange hot path to zero
// steady-state allocations at 2 ranks — the real multi-rank path through
// par.SendF64/RecvF64, not the 1-rank self short-circuit. AllocsPerRun
// measures global mallocs, so the peer rank's matching exchanges must be
// allocation-free too; the peer runs exactly runs+1 of them (AllocsPerRun's
// warm-up call plus runs measured calls).
func TestIcosExchangeZeroAllocs(t *testing.T) {
	m := icosMesh(t, 2)
	nc, ne := m.NCells(), m.NEdges()
	const nlev, runs = 4, 20
	par.Run(2, func(c *par.Comm) {
		d, err := NewIcosDecomp(m, c)
		if err != nil {
			t.Errorf("NewIcosDecomp: %v", err)
			return
		}
		fc := make([]float64, nlev*nc)
		fe := make([]float64, nlev*ne)
		step := func() {
			d.ExchangeCells(fc, nlev)
			d.ExchangeEdges(fe, nlev)
		}
		// Warm both parity buffer sets.
		step()
		step()
		c.Barrier()
		if c.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, step)
			if avg != 0 {
				t.Errorf("halo exchange allocates %v per call in steady state, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				step()
			}
		}
		c.Barrier()
	})
}

func TestIcosDecompTooManyRanks(t *testing.T) {
	m := icosMesh(t, 0) // 12 cells
	par.Run(1, func(c *par.Comm) {
		if _, err := NewIcosDecomp(m, c); err != nil {
			t.Errorf("1 rank on 12 cells: %v", err)
		}
	})
	// A size larger than the cell count must be rejected, checked directly
	// on the constructor's guard (runs at 13 goroutine ranks).
	par.Run(13, func(c *par.Comm) {
		if _, err := NewIcosDecomp(m, c); err == nil {
			t.Errorf("13 ranks on 12 cells: want error")
		}
	})
}
