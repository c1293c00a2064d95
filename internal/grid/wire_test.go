package grid

import (
	"math"
	"sync"
	"testing"

	"repro/internal/par"
)

// countingObs is a minimal HaloObserver recording per-name totals.
type countingObs struct {
	mu sync.Mutex
	m  map[string]int64
}

func newCountingObs() *countingObs { return &countingObs{m: map[string]int64{}} }

func (o *countingObs) AddCount(name string, d int64) {
	o.mu.Lock()
	o.m[name] += d
	o.mu.Unlock()
}

func (o *countingObs) get(name string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[name]
}

// gs32Budget is the per-value absolute error bound of the compressed wire
// for values of magnitude ≤ maxAbs: the group scale is at most 2·maxAbs and
// the quantization error one float32 ulp at the clamp bound, 2⁻²³ of the
// scale — so 2⁻²² of the group max.
func gs32Budget(maxAbs float64) float64 { return maxAbs * math.Pow(2, -22) }

// TestIcosExchangeGS32WithinBudget runs the cell and edge halo exchanges
// under both wire formats on identical fields and checks every extended
// value: f64 is bit-exact, gs32 lands within the group-scaled bit-error
// budget of the exact halo value.
func TestIcosExchangeGS32WithinBudget(t *testing.T) {
	m := icosMesh(t, 2)
	nc, ne := m.NCells(), m.NEdges()
	const nlev = 3
	cellVal := func(k, c int) float64 { return float64(k*10000+c) + 0.25 }
	edgeVal := func(k, e int) float64 { return -float64(k*10000+e) - 0.75 }
	for _, ranks := range []int{2, 4} {
		par.Run(ranks, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			run := func(w par.WireFormat) ([]float64, []float64) {
				d.SetWire(w)
				fc := make([]float64, nlev*nc)
				fe := make([]float64, nlev*ne)
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
				return fc, fe
			}
			fc64, fe64 := run(par.WireF64)
			fcGS, feGS := run(par.WireGS32)
			d.SetWire(par.WireF64)
			budget := gs32Budget(float64(nlev*10000 + ne))
			for k := 0; k < nlev; k++ {
				for _, cell := range d.ExtCells {
					if got, want := fc64[k*nc+cell], cellVal(k, cell); got != want {
						t.Errorf("f64 cell %d lev %d = %v, want %v", cell, k, got, want)
						return
					}
					if d := math.Abs(fcGS[k*nc+cell] - cellVal(k, cell)); d > budget {
						t.Errorf("gs32 cell %d lev %d off by %v, budget %v", cell, k, d, budget)
						return
					}
				}
				for _, e := range d.ExtEdges {
					if got, want := fe64[k*ne+e], edgeVal(k, e); got != want {
						t.Errorf("f64 edge %d lev %d = %v, want %v", e, k, got, want)
						return
					}
					if d := math.Abs(feGS[k*ne+e] - edgeVal(k, e)); d > budget {
						t.Errorf("gs32 edge %d lev %d off by %v, budget %v", e, k, d, budget)
						return
					}
				}
			}
		})
	}
}

// TestIcosExchangeGS32ZeroAllocs pins the compressed halo path to zero
// steady-state allocations, like the f64 variant: the persistent per-peer
// group-scaled encodings and the decode scratch must absorb every exchange
// once both parity sets are warm.
func TestIcosExchangeGS32ZeroAllocs(t *testing.T) {
	m := icosMesh(t, 2)
	nc, ne := m.NCells(), m.NEdges()
	const nlev, runs = 4, 20
	par.Run(2, func(c *par.Comm) {
		d, err := NewIcosDecomp(m, c)
		if err != nil {
			t.Errorf("NewIcosDecomp: %v", err)
			return
		}
		d.SetWire(par.WireGS32)
		fc := make([]float64, nlev*nc)
		fe := make([]float64, nlev*ne)
		step := func() {
			d.ExchangeCells(fc, nlev)
			d.ExchangeEdges(fe, nlev)
		}
		step()
		step()
		c.Barrier()
		if c.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, step)
			if avg != 0 {
				t.Errorf("gs32 halo exchange allocates %v per call in steady state, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				step()
			}
		}
		c.Barrier()
	})
}

// TestTripolarGS32MatchesF64 runs a batched tripolar exchange — scalar,
// multi-level, and vec fields over a layout with south boundary, fold, and
// periodic x — under both wire formats and checks gs32 halos stay within the
// bit-error budget of the bit-exact f64 halos everywhere.
func TestTripolarGS32MatchesF64(t *testing.T) {
	g, err := NewTripolar(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(4, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		const nlev = 2
		n2 := d.LNI() * d.LNJ()
		fill := func() (s1, sk, v []float64) {
			s1 = d.Alloc()
			sk = make([]float64, nlev*n2)
			v = d.Alloc()
			for lj := 0; lj < d.NJ; lj++ {
				for li := 0; li < d.NI; li++ {
					gi := d.GIdx(li, lj)
					s1[d.LIdx(li, lj)] = 1000 + float64(gi)
					v[d.LIdx(li, lj)] = -2000 - float64(gi)
					for k := 0; k < nlev; k++ {
						sk[k*n2+d.LIdx(li, lj)] = float64(k*100000+gi) + 0.5
					}
				}
			}
			return
		}
		run := func(w par.WireFormat) []HaloField {
			d.SetWire(w)
			s1, sk, v := fill()
			fields := []HaloField{
				{Data: s1, NLev: 1},
				{Data: sk, NLev: nlev},
				{Data: v, NLev: 1, Vec: true},
			}
			d.ExchangeFields(fields)
			return fields
		}
		f64 := run(par.WireF64)
		gs := run(par.WireGS32)
		d.SetWire(par.WireF64)
		budget := gs32Budget(2*100000 + float64(g.NX*g.NY))
		for fi := range f64 {
			a, b := f64[fi].Data, gs[fi].Data
			for i := range a {
				if diff := math.Abs(a[i] - b[i]); diff > budget {
					t.Errorf("rank %d field %d idx %d: gs32 %v vs f64 %v (|Δ| %v > %v)",
						c.Rank(), fi, i, b[i], a[i], diff, budget)
					return
				}
			}
		}
	})
}

// TestHaloWireAccounting checks the labeled cpl.halo.*{component="atm"}
// counters under BOTH wire formats: messages are counted, actual wire bytes
// equal the halo bytes, raw bytes exceed them under gs32 by at least the
// 1.6× reduction the bench gates, and match them exactly under f64.
func TestHaloWireAccounting(t *testing.T) {
	m := icosMesh(t, 2)
	nc := m.NCells()
	for _, w := range []par.WireFormat{par.WireF64, par.WireGS32} {
		par.Run(2, func(c *par.Comm) {
			d, err := NewIcosDecomp(m, c)
			if err != nil {
				t.Errorf("NewIcosDecomp: %v", err)
				return
			}
			ob := newCountingObs()
			d.SetObserver(ob)
			d.SetWire(w)
			fc := make([]float64, 3*nc)
			for i := range fc {
				fc[i] = float64(i) + 0.125
			}
			for i := 0; i < 4; i++ {
				d.ExchangeCells(fc, 3)
			}
			if got := ob.get(ctrHaloMsgsAtm); got == 0 {
				t.Errorf("wire=%v: labeled msgs %d, want nonzero", w, got)
			}
			labeledBytes := ob.get(ctrHaloBytesAtm)
			if labeledBytes == 0 {
				t.Errorf("wire=%v: labeled bytes %d, want nonzero", w, labeledBytes)
			}
			raw, wire := ob.get("cpl.wire.raw.bytes"), ob.get("cpl.wire.bytes")
			if wire != labeledBytes {
				t.Errorf("wire=%v: cpl.wire.bytes %d != halo bytes %d", w, wire, labeledBytes)
			}
			switch w {
			case par.WireF64:
				if raw != wire {
					t.Errorf("f64: raw %d != wire %d", raw, wire)
				}
			case par.WireGS32:
				if float64(raw) < 1.6*float64(wire) {
					t.Errorf("gs32: raw %d / wire %d = %.2fx, want ≥ 1.6x", raw, wire, float64(raw)/float64(wire))
				}
			}
		})
	}
}

// TestTripolarWireCounters checks the ocean decomposition's wire accounting
// under gs32: halo bytes equal actual wire bytes and the raw/wire ratio
// clears the same 1.6× bar.
func TestTripolarWireCounters(t *testing.T) {
	g, err := NewTripolar(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(4, func(c *par.Comm) {
		d, err := NewTripolarDecompLayout(g, c, 2, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		ob := newCountingObs()
		d.SetObserver(ob)
		d.SetWire(par.WireGS32)
		f := d.Alloc()
		for i := range f {
			f[i] = float64(i)
		}
		for i := 0; i < 4; i++ {
			d.Exchange(f)
		}
		haloBytes := ob.get(ctrHaloBytesOcn)
		raw, wire := ob.get("cpl.wire.raw.bytes"), ob.get("cpl.wire.bytes")
		if wire != haloBytes || haloBytes == 0 {
			t.Errorf("cpl.wire.bytes %d != ocean halo bytes %d (want equal, nonzero)", wire, haloBytes)
		}
		if float64(raw) < 1.6*float64(wire) {
			t.Errorf("gs32 ocean: raw %d / wire %d = %.2fx, want ≥ 1.6x", raw, wire, float64(raw)/float64(wire))
		}
	})
}
