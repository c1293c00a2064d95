package pp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host is a worker-pool space, the analogue of an OpenMP parallel region on
// the host cores, and like an OpenMP runtime it keeps its threads hot
// between regions instead of forking per loop.
//
// A launch splits [0, n) into min(workers, n) contiguous blocks (the OpenMP
// "schedule(static)" partition). The calling goroutine runs block 0; block
// w runs on helper goroutine w. A helper that finishes its block spins on
// its own state word for hostSpin, yielding as it spins, and takes the next
// launch's block without a wake-up; when the window passes with no launch
// it exits, and the next launch spawns it again. So no goroutine outlives
// the last launch by more than the spin window.
//
// A launch that cannot use the helpers spawns one goroutine per block and
// waits for them, with the same partition and join order: when another
// launch holds them (a Host shared by several ranks), when it is nested
// inside a body of a running launch, and when workers exceeds GOMAXPROCS,
// where a spinning helper would take the processor its block needs.
type Host struct {
	workers int

	// pool is held for the whole of a launch that runs on the helpers.
	pool    sync.Mutex
	helpers []hostHelper // helpers[w-1] runs block w
	pending atomic.Int32 // helper blocks of the current launch still running

	// The current launch, written before its helpers are released.
	n, blocks int
	f         func(i int)
	rf        func(i int) float64
	join      func(a, b float64) float64
	identity  float64
	partials  []float64 // per block, for reductions
}

// hostSpin is how long an idle helper waits for the next launch before it
// exits. Launches within a coupled step come tens to hundreds of
// microseconds apart, so a helper spans a step's launches while one that
// outlives the run is gone almost at once.
const hostSpin = 100 * time.Microsecond

// Helper states. Only the launcher moves a helper out of helperGone or
// into helperWork; only the helper moves itself out of helperWork or into
// helperGone.
const (
	helperGone uint32 = iota // no goroutine; the next launch spawns one
	helperIdle               // spinning, waiting for a block
	helperWork               // a block is posted
)

// hostHelper is one helper's state word, alone on its cache line because
// it is spun on.
type hostHelper struct {
	state atomic.Uint32
	_     [60]byte
}

// NewHost creates a Host space with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewHost(workers int) *Host {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Host{
		workers:  workers,
		helpers:  make([]hostHelper, workers-1),
		partials: make([]float64, workers),
	}
}

// Name implements Space.
func (h *Host) Name() string { return "Host" }

// Concurrency implements Space.
func (h *Host) Concurrency() int { return h.workers }

// ParallelFor implements Space with the static block schedule.
func (h *Host) ParallelFor(n int, f func(i int)) {
	if !h.acquire(n) {
		parallelForBlocks(h.workers, n, f)
		return
	}
	defer h.pool.Unlock()
	h.f = f
	h.run(n)
}

// ParallelReduce implements Space. Each block reduces privately from
// identity and the block results are joined in block order, so the result
// is deterministic for a fixed worker count and identical on either launch
// path.
func (h *Host) ParallelReduce(n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	if !h.acquire(n) {
		return parallelReduceBlocks(h.workers, n, identity, f, join)
	}
	defer h.pool.Unlock()
	h.rf, h.join, h.identity = f, join, identity
	blocks := min(h.workers, n)
	h.run(n)
	acc := identity
	for _, p := range h.partials[:blocks] {
		acc = join(acc, p)
	}
	return acc
}

// acquire reports whether a launch of n iterations runs on the helpers,
// holding the pool if so; the launch releases it once it has read the
// helpers' results. Launches of at most one block run inline on the
// spawn path, which spawns nothing for them.
func (h *Host) acquire(n int) bool {
	if min(h.workers, n) <= 1 || h.workers > runtime.GOMAXPROCS(0) {
		return false
	}
	return h.pool.TryLock()
}

// run posts blocks 1.. to the helpers, runs block 0 and waits for the rest,
// even if block 0 panics, so the helpers are done with the launch's state
// before the pool can be released.
func (h *Host) run(n int) {
	defer h.finish()
	h.n, h.blocks = n, min(h.workers, n)
	h.pending.Store(int32(h.blocks - 1))
	for w := 1; w < h.blocks; w++ {
		hp := &h.helpers[w-1]
		if !hp.state.CompareAndSwap(helperIdle, helperWork) {
			hp.state.Store(helperWork) // the helper had exited
			go h.helper(w)
		}
	}
	h.block(0)
}

// finish waits for the helpers' blocks and drops the launch's functions.
func (h *Host) finish() {
	for h.pending.Load() != 0 {
		runtime.Gosched()
	}
	h.f, h.rf, h.join = nil, nil, nil
}

// block runs block w of the current launch.
func (h *Host) block(w int) {
	lo, hi := w*h.n/h.blocks, (w+1)*h.n/h.blocks
	if f := h.f; f != nil {
		for i := lo; i < hi; i++ {
			f(i)
		}
		return
	}
	rf, join := h.rf, h.join
	acc := h.identity
	for i := lo; i < hi; i++ {
		acc = join(acc, rf(i))
	}
	h.partials[w] = acc
}

// helper is helper w's goroutine: it runs the block it was spawned for and
// every block posted to it within the spin window of the previous one.
func (h *Host) helper(w int) {
	hp := &h.helpers[w-1]
	for {
		h.block(w)
		hp.state.Store(helperIdle)
		h.pending.Add(-1)
		if !hp.await() {
			return
		}
	}
}

// await spins until a block is posted, and reports false if instead the
// spin window passed and the helper retired.
func (hp *hostHelper) await() bool {
	deadline := time.Now().Add(hostSpin)
	for hp.state.Load() != helperWork {
		if time.Now().After(deadline) && hp.state.CompareAndSwap(helperIdle, helperGone) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// parallelForBlocks is the spawn path: one goroutine per contiguous block
// of [0,n), waited for before returning.
func parallelForBlocks(workers, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

func parallelReduceBlocks(workers, n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	if n == 0 {
		return identity
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		acc := identity
		for i := 0; i < n; i++ {
			acc = join(acc, f(i))
		}
		return acc
	}
	partials := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := identity
			for i := lo; i < hi; i++ {
				acc = join(acc, f(i))
			}
			partials[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()
	acc := identity
	for _, p := range partials {
		acc = join(acc, p)
	}
	return acc
}
