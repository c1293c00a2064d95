package pp

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pooledHost returns a two-worker Host whose launches run on the helper
// pool: GOMAXPROCS is raised to two for the test if it is lower.
func pooledHost(t *testing.T) *Host {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	return NewHost(2)
}

// blockReference folds f over the static blocks of [0, n) on the Serial
// space, each from identity, and joins the block results in block order:
// the arithmetic a Host reduction must reproduce bit for bit.
func blockReference(workers, n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	blocks := min(workers, n)
	acc := identity
	for w := 0; w < blocks; w++ {
		lo, hi := w*n/blocks, (w+1)*n/blocks
		acc = join(acc, Serial{}.ParallelReduce(hi-lo, identity, func(i int) float64 { return f(lo + i) }, join))
	}
	return acc
}

// Pooled launches cover the range once and reduce to the bits of the
// Serial block fold and of the spawn path, for sizes around the partition
// edges and over many back-to-back launches that reuse the helpers.
func TestHostPoolMatchesSerial(t *testing.T) {
	h := pooledHost(t)
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 4099)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Exp(rng.Float64()*20)
	}
	f := func(i int) float64 { return vals[i] }
	sum := func(a, b float64) float64 { return a + b }
	for rep := 0; rep < 50; rep++ {
		for _, n := range []int{0, 1, 2, 3, 64, 1001, len(vals)} {
			out := make([]float64, n)
			h.ParallelFor(n, func(i int) { out[i] += vals[i] + 1 })
			for i := range out {
				if out[i] != vals[i]+1 {
					t.Fatalf("n=%d: out[%d] = %g, want %g", n, i, out[i], vals[i]+1)
				}
			}
			got := h.ParallelReduce(n, 0, f, sum)
			want := blockReference(2, n, 0, f, sum)
			spawn := parallelReduceBlocks(2, n, 0, f, sum)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(spawn) != math.Float64bits(want) {
				t.Fatalf("n=%d: pooled sum %x, spawn path %x, Serial block fold %x",
					n, math.Float64bits(got), math.Float64bits(spawn), math.Float64bits(want))
			}
		}
	}
}

// Block 1 runs on a pooled helper, whose state word reads helperWork for
// as long as its block runs; a spawned block leaves every helper gone.
func TestHostPoolRunsOnHelpers(t *testing.T) {
	h := pooledHost(t)
	for rep := 0; rep < 3; rep++ {
		var state uint32
		h.ParallelFor(2, func(i int) {
			if i == 1 {
				state = h.helpers[0].state.Load()
			}
		})
		if state != helperWork {
			t.Fatalf("launch %d: helper state %d during its block, want %d (pooled)", rep, state, helperWork)
		}
	}
}

// More workers than GOMAXPROCS: spinning helpers would starve the caller,
// so launches take the spawn path and never start a helper.
func TestHostOversubscribedFallsBack(t *testing.T) {
	h := NewHost(runtime.GOMAXPROCS(0) + 1)
	n := 10 * h.workers
	out := make([]float64, n)
	h.ParallelFor(n, func(i int) {
		out[i] = float64(i)
		for w := range h.helpers {
			if s := h.helpers[w].state.Load(); s != helperGone {
				t.Errorf("helper %d in state %d during an oversubscribed launch", w+1, s)
			}
		}
	})
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("out[%d] = %g", i, v)
		}
	}
	f := func(i int) float64 { return out[i] }
	sum := func(a, b float64) float64 { return a + b }
	if got, want := h.ParallelReduce(n, 0, f, sum), blockReference(h.workers, n, 0, f, sum); got != want {
		t.Errorf("sum %g, want %g", got, want)
	}
}

// A launch from inside a body of a running launch on the same Host cannot
// take the pool the outer launch holds, and runs on the spawn path.
func TestHostNestedLaunch(t *testing.T) {
	h := pooledHost(t)
	const outer, inner = 6, 50
	var grid [outer][inner]int
	sums := make([]float64, outer)
	h.ParallelFor(outer, func(i int) {
		h.ParallelFor(inner, func(j int) { grid[i][j]++ })
		sums[i] = h.ParallelReduce(inner, 0, func(j int) float64 { return float64(i * j) },
			func(a, b float64) float64 { return a + b })
	})
	for i := range grid {
		for j, c := range grid[i] {
			if c != 1 {
				t.Fatalf("(%d,%d) visited %d times", i, j, c)
			}
		}
		if want := float64(i * inner * (inner - 1) / 2); sums[i] != want {
			t.Errorf("inner sum %d = %g, want %g", i, sums[i], want)
		}
	}
}

// Several goroutines launching on one Host at once — ranks sharing the
// command-line model's space — each get their own complete results.
func TestHostConcurrentLaunches(t *testing.T) {
	h := pooledHost(t)
	const callers, launches, n = 3, 200, 257
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, n)
			for l := 0; l < launches; l++ {
				h.ParallelFor(n, func(i int) { out[i] = g*l + i })
				got := h.ParallelReduce(n, 0, func(i int) float64 { return float64(out[i]) },
					func(a, b float64) float64 { return a + b })
				if want := float64(n*g*l + n*(n-1)/2); got != want {
					t.Errorf("caller %d launch %d: sum %g, want %g", g, l, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Helpers exit once the spin window passes without a launch, so the
// goroutine count returns to its baseline shortly after the last launch.
func TestHostHelpersExitAfterSpin(t *testing.T) {
	h := pooledHost(t)
	base := runtime.NumGoroutine()
	for l := 0; l < 100; l++ {
		h.ParallelFor(64, func(int) {})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		gone := h.helpers[0].state.Load() == helperGone
		n := runtime.NumGoroutine()
		if gone && n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("helper gone %v, %d goroutines, baseline %d, 2 s after the last launch", gone, n, base)
		}
		time.Sleep(time.Millisecond)
	}
}
