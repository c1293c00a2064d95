package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/atmos"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/statestore"
	"repro/internal/typhoon"
)

// The coupled configuration every workload runs: 25v10 with f64 kernels,
// the sequential schedule and conservative remapping.
const configLabel = "25v10"

const (
	// checkSteps is the fixed check window: the steps after which the
	// cross-rank digest is taken. It doubles as the warm-up, so timed laps
	// start from its end state.
	checkSteps = 30
	// setupReps constructions give the set-up median; one construction
	// takes 10–20 ms and jitters far more than the bound.
	setupReps = 31
	// ckptReps checkpoint writes and reads give the pario medians.
	ckptReps = 5
	// lapDays is the simulated interval of one lap: the model is built for
	// one simulated day, the command-line model's default run, and a lap
	// times every step from the end of the check window to the end of that
	// day.
	lapDays = 1
)

var modelStart = time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

// coupledWorkload is one coupled configuration.
type coupledWorkload struct {
	ranks   int
	workers int    // Host workers per rank; 0 selects Serial
	other   string // workload whose digest after the check window must match
}

var coupledWorkloads = map[string]coupledWorkload{
	"coupled-1r": {ranks: 1, workers: 2, other: "coupled-2r"},
	"coupled-2r": {ranks: 2, workers: 0, other: "coupled-1r"},
}

// workloadLoad is the number of processors a workload keeps busy: ranks ×
// workers per rank.
func workloadLoad(name string) (int, error) {
	if name == "ensemble-ckpt" {
		return ensembleGroups * ensembleRanks, nil
	}
	w, ok := coupledWorkloads[name]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	return w.ranks * max(w.workers, 1), nil
}

func (w coupledWorkload) space() pp.Space {
	if w.workers > 0 {
		return pp.NewHost(w.workers)
	}
	return pp.Serial{}
}

// options are the assembly options of the workload; tracing is off
// (obs.Nop, as the command-line model runs by default) unless a later
// option replaces the observer.
func (w coupledWorkload) options(extra ...core.Option) []core.Option {
	opts := []core.Option{
		core.WithInterval(modelStart, modelStart.AddDate(0, 0, lapDays)),
		core.WithSpace(w.space()),
		core.WithRemap(core.RemapCons),
		core.WithObserver(obs.Nop{}),
	}
	return append(opts, extra...)
}

// buildSeeded builds the model and plants the seed's perturbed Doksuri
// vortex.
func buildSeeded(cfg core.Config, c *par.Comm, seed int64, opts []core.Option) (*core.ESM, error) {
	e, err := core.NewWithOptions(cfg, c, opts...)
	if err != nil {
		return nil, err
	}
	if err := typhoon.Seed(e.Atm, typhoon.DefaultPerturbation().Apply(typhoon.DoksuriSeed(), seed)); err != nil {
		return nil, err
	}
	return e, nil
}

// digest is a CRC-32C over the gathered surface pressure, 10 m wind speed
// and SST. Collective; only rank 0 gets ok=true.
func digest(e *core.ESM) (sum uint32, ok bool) {
	snap, ok := e.CaptureServeSnapshot()
	if !ok {
		return 0, false
	}
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var b [8]byte
	for _, f := range snap.Fields {
		switch f.Name {
		case statestore.PsField, statestore.WindField, statestore.SSTField:
			for _, v := range f.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return h.Sum32(), true
}

// rankErrs collects per-rank errors from a par.Run body.
type rankErrs struct {
	mu   sync.Mutex
	errs []error
}

func (r *rankErrs) add(rank int, err error) {
	r.mu.Lock()
	r.errs = append(r.errs, fmt.Errorf("rank %d: %w", rank, err))
	r.mu.Unlock()
}

func (r *rankErrs) err() error {
	if len(r.errs) == 0 {
		return nil
	}
	return r.errs[0]
}

// memPeak returns the process's peak resident set and the Go runtime's
// MemStats.Sys, both in MiB. The peak resident set is the reported figure:
// Sys grows in whole heap-arena steps, so two concurrent ensemble members
// that happen to peak together move it by 4 MiB between runs of identical
// work, while the resident set tracks the same peak page by page.
func memPeak() (peakMiB, sysMiB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("reading the peak resident set: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ru.Maxrss) / 1024, float64(ms.Sys) / (1 << 20), nil // Maxrss is in KiB on Linux
}

// collect runs a garbage collection between two barriers, so the next
// phase starts from a heap holding only live models, whatever the previous
// phase left behind. Collective.
func collect(c *par.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		runtime.GC()
	}
	c.Barrier()
}

// measureSetup times repeated core.NewWithOptions calls at the given rank
// count, barrier to barrier, each from a collected heap, and returns each
// construction's seconds.
func measureSetup(cfg core.Config, ranks int, opts []core.Option) ([]float64, error) {
	var errs rankErrs
	times := make([]float64, 0, setupReps)
	par.Run(ranks, func(c *par.Comm) {
		for i := 0; i < setupReps; i++ {
			collect(c)
			t := time.Now()
			_, err := core.NewWithOptions(cfg, c, opts...)
			c.Barrier()
			if err != nil {
				errs.add(c.Rank(), err)
				return
			}
			if c.Rank() == 0 {
				times = append(times, time.Since(t).Seconds())
			}
		}
	})
	return times, errs.err()
}

// prepareWarm builds the seeded model, runs the check window, and writes
// the end state as the restart set every lap starts from. It returns the
// digest after the check window (on rank 0). Collective.
func prepareWarm(cfg core.Config, c *par.Comm, w coupledWorkload, seed int64, dir string) (uint32, error) {
	e, err := buildSeeded(cfg, c, seed, w.options())
	if err != nil {
		return 0, err
	}
	for i := 0; i < checkSteps; i++ {
		if !e.Step() {
			return 0, fmt.Errorf("clock exhausted in the check window")
		}
	}
	sum, _ := digest(e)
	if err := e.WriteRestart(dir, 1); err != nil {
		return 0, fmt.Errorf("writing the lap start state: %w", err)
	}
	return sum, nil
}

// referenceDigest runs the check window of workload w and returns the
// digest.
func referenceDigest(cfg core.Config, w coupledWorkload, seed int64, dir string) (uint32, error) {
	var errs rankErrs
	var sum uint32
	par.Run(w.ranks, func(c *par.Comm) {
		s, err := prepareWarm(cfg, c, w, seed, dir)
		if err != nil {
			errs.add(c.Rank(), err)
		}
		if c.Rank() == 0 {
			sum = s
		}
	})
	return sum, errs.err()
}

// lapFuncs adapt the lap loop to a run: build makes a lap's fresh model;
// step advances one coupled step; begin and end (optional) run right before
// the lap's first timed step and right after its last, with no collective
// in between, so counters they read cover exactly the timed steps.
type lapFuncs struct {
	build      func() (*core.ESM, error)
	begin, end func(e *core.ESM) error
	step       func(e *core.ESM) bool
}

// memDelta is what the Go runtime allocated while timed steps ran.
type memDelta struct {
	mallocs, bytes, gcs uint64
}

// lapResult is one rank's view of its laps.
type lapResult struct {
	mem     memDelta  // process-wide, over the timed steps (rank 0)
	walls   []float64 // seconds per timed step, laps concatenated
	sim     float64   // simulated seconds advanced in timed steps
	laps    int
	health  []error  // ESM.Health at the end of each lap
	digests []uint32 // state digest at the end of each lap (rank 0)
	last    *core.ESM
}

// runLaps times laps for about seconds, at least one: each lap reads the
// start state into a freshly built model and times every step to the end of
// the simulated day from outside. Another lap starts while it would end
// nearer the target than stopping now; rank 0 decides and broadcasts, so
// every rank runs the same steps. Collective.
func runLaps(c *par.Comm, dir string, seconds float64, sc scale, lf lapFuncs) (lapResult, error) {
	var r lapResult
	start := time.Now()
	lapWall := 0.0
	for r.laps == 0 || par.Bcast(c, 0, time.Since(start).Seconds()+lapWall/2 <= seconds) {
		collect(c)
		t0 := time.Now()
		e, err := lf.build()
		if err != nil {
			return r, err
		}
		if err := e.ReadRestart(dir, 1); err != nil {
			return r, fmt.Errorf("reading the lap start state: %w", err)
		}
		n := lapDays*e.Cfg.AtmCouplingsPerDay - e.CouplingSteps()
		if sc.lapSteps > 0 {
			n = sc.lapSteps
		}
		var m0, m1 runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		if lf.begin != nil {
			if err := lf.begin(e); err != nil {
				return r, err
			}
		}
		r.walls = slices.Grow(r.walls, n) // no allocation inside the timed steps
		sim0 := e.SimulatedSeconds()
		for i := 0; i < n; i++ {
			t := time.Now()
			if !lf.step(e) {
				return r, fmt.Errorf("clock exhausted after %d of %d lap steps", i, n)
			}
			r.walls = append(r.walls, time.Since(t).Seconds())
		}
		r.sim += e.SimulatedSeconds() - sim0
		if lf.end != nil {
			if err := lf.end(e); err != nil {
				return r, err
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			r.mem.mallocs += m1.Mallocs - m0.Mallocs
			r.mem.bytes += m1.TotalAlloc - m0.TotalAlloc
			r.mem.gcs += uint64(m1.NumGC - m0.NumGC)
		}
		r.health = append(r.health, e.Health())
		d, _ := digest(e)
		r.digests = append(r.digests, d)
		r.laps++
		r.last = e
		lapWall = time.Since(t0).Seconds()
	}
	return r, nil
}

// stepMax combines per-rank step walls into the per-step maximum over
// ranks: the slower rank sets every coupled step (§6.2's max-over-ranks
// convention).
func stepMax(rs []lapResult) []float64 {
	out := append([]float64(nil), rs[0].walls...)
	for _, r := range rs[1:] {
		for i := range out {
			out[i] = math.Max(out[i], r.walls[i])
		}
	}
	return out
}

// checkLaps records the per-lap checks of rank 0's laps — health at the
// end of every lap, and the same end state on every lap — and counts each
// lap as an operation that fails when either check fails for it.
func checkLaps(out *outcome, label string, r lapResult) {
	var unhealthy []string
	failed, diverged := 0, 0
	for i, h := range r.health {
		bad := false
		if h != nil {
			unhealthy = append(unhealthy, fmt.Sprintf("lap %d: %v", i, h))
			bad = true
		}
		if r.digests[i] != r.digests[0] {
			diverged++
			bad = true
		}
		if bad {
			failed++
		}
	}
	out.check(label+"-health", len(unhealthy) == 0, "ESM.Health at the end of %d laps: %d unhealthy %v", r.laps, len(unhealthy), unhealthy)
	out.check(label+"-lap-determinism", diverged == 0, "end-of-lap digests %08x", r.digests)
	out.attempted += r.laps
	out.failed += failed
}

// runCoupled is the end-to-end run of a coupled workload: set-up time,
// timed laps, the peak memory, then the check window at the other rank
// count for the cross-rank digest check.
func runCoupled(w coupledWorkload, o runOpts) (*outcome, error) {
	cfg, err := core.ConfigForLabel(configLabel)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceCoupled(w, cfg, o)
	}
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}

	setup, err := measureSetup(cfg, w.ranks, w.options())
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var errs rankErrs
	res := make([]lapResult, w.ranks)
	var sum uint32
	dir := filepath.Join(o.work, "warm")
	par.Run(w.ranks, func(c *par.Comm) {
		s, err := prepareWarm(cfg, c, w, o.seed, dir)
		if err != nil {
			errs.add(c.Rank(), err)
			return
		}
		if c.Rank() == 0 {
			sum = s
		}
		res[c.Rank()], err = runLaps(c, dir, o.seconds, o.scale, lapFuncs{
			build: func() (*core.ESM, error) { return core.NewWithOptions(cfg, c, w.options()...) },
			step:  (*core.ESM).Step,
		})
		if err != nil {
			errs.add(c.Rank(), err)
		}
	})
	if err := errs.err(); err != nil {
		return nil, err
	}
	peak, sys, err := memPeak()
	if err != nil {
		return nil, err
	}
	// The reference runs after the memory reading: its rank count differs.
	ref, err := referenceDigest(cfg, coupledWorkloads[w.other], o.seed, filepath.Join(o.work, "ref"))
	if err != nil {
		return nil, fmt.Errorf("reference check window: %w", err)
	}

	checkLaps(out, "laps", res[0])
	out.check("cross-rank-digest", sum == ref,
		"CRC-32C of ps, wind10m, sst after %d steps: %08x here, %08x at %s", checkSteps, sum, ref, w.other)
	if sum != ref {
		out.failed = out.attempted // every lap starts from the mismatched state
	}

	// The rates are over the whole timed window: every step counts,
	// including those that carry the ocean, the flux import and GC pauses.
	walls := stepMax(res)
	wall := total(walls)
	out.metrics["sypd"] = sypd(res[0].sim, wall)
	out.metrics["members_per_hour"] = membersPerHourEquivalent(res[0].sim, wall, o.scale.hours)
	out.metrics["setup_s"] = median(setup)
	out.metrics["mem_peak_mb"] = peak
	out.notes["memstats_sys_mb"] = sys
	out.notes["laps"] = res[0].laps
	out.notes["lap_sypd"] = lapSYPD(walls, res[0].sim, res[0].laps)
	out.notes["step_ms"] = msSummary(summarize(walls))
	out.notes["setup_ms"] = msSummary(summarize(setup))
	out.notes["digest"] = fmt.Sprintf("%08x", sum)
	return out, nil
}

// membersPerHourEquivalent expresses a coupled configuration's rate in the
// ensemble's throughput unit: integrations of one member's length
// (memberHours simulated) per wall-clock hour.
func membersPerHourEquivalent(simSeconds, wallSeconds, memberHours float64) float64 {
	return ratio(3600*simSeconds/wallSeconds, memberHours*3600)
}

// lapSYPD splits laps-concatenated step walls into laps of equal length and
// returns each lap's SYPD, given the simulated seconds of all laps.
func lapSYPD(walls []float64, sim float64, laps int) []float64 {
	per := len(walls) / laps
	out := make([]float64, laps)
	for i := range out {
		out[i] = sypd(sim/float64(laps), total(walls[i*per:(i+1)*per]))
	}
	return out
}

func msSummary(s summary) map[string]any {
	return map[string]any{"n": s.N, "p25": s.P25 * 1e3, "p50": s.P50 * 1e3, "p75": s.P75 * 1e3, "p90": s.P90 * 1e3}
}

// layerSetup times the two construction stages the set-up metric is most
// sensitive to: the atmosphere (mesh, reconstruction, physics tables) and
// the regridder (nearest-neighbour and conservative weights).
func layerSetup(cfg core.Config) (atmMs, regridMs float64, err error) {
	var at, rt []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		m, err := atmos.New(cfg.AtmLevel, cfg.AtmNLev, cfg.AtmCfg, pp.Serial{})
		if err != nil {
			return 0, 0, err
		}
		at = append(at, time.Since(t).Seconds()*1e3)
		g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
		if err != nil {
			return 0, 0, err
		}
		t = time.Now()
		core.NewRegridder(m.Mesh, g)
		rt = append(rt, time.Since(t).Seconds()*1e3)
	}
	return median(at), median(rt), nil
}
