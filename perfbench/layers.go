package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// layerSumTolerance bounds the layer-sum check: rank 0's atm, ocn and ice
// span time plus the core.step self time must account for the step wall
// timed from outside within this share.
const layerSumTolerance = 0.02

// commCounts is a plain copy of a rank's par.CommStats.
type commCounts struct {
	msgs, bytes, collectives, barriers int64
}

func (a commCounts) add(b commCounts) commCounts {
	return commCounts{a.msgs + b.msgs, a.bytes + b.bytes, a.collectives + b.collectives, a.barriers + b.barriers}
}

func (a commCounts) sub(b commCounts) commCounts {
	return commCounts{a.msgs - b.msgs, a.bytes - b.bytes, a.collectives - b.collectives, a.barriers - b.barriers}
}

func commOf(c *par.Comm) commCounts {
	s := c.Stats()
	return commCounts{s.SendMsgs.Load(), s.SendBytes.Load(), s.Collectives.Load(), s.Barriers.Load()}
}

// counters snapshots the observer's counters by name.
func counters(o *obs.Obs) map[string]int64 {
	m := map[string]int64{}
	for _, p := range o.Registry().Snapshot() {
		if p.Kind == obs.KindCounter {
			m[p.Name] = p.Count
		}
	}
	return m
}

const (
	ctrRearrCalls   = "coupler.rearrange.calls"
	ctrRearrBytes   = "coupler.rearrange.bytes"
	ctrParioBytes   = "pario.subfile.bytes"
	ctrParioCalls   = "pario.subfile.calls"
	ctrHaloBytesAtm = `cpl.halo.bytes{component="atm"}`
	ctrHaloBytesOcn = `cpl.halo.bytes{component="ocn"}`
)

// launchCounts returns the kernel launches and their iterations that
// pp.Instrument counted on a live observer.
func launchCounts(ctr map[string]int64) (launches, iters float64) {
	return float64(ctr["pp.for.launches"] + ctr["pp.reduce.launches"]),
		float64(ctr["pp.for.iters"] + ctr["pp.reduce.iters"])
}

// rankTrace is one rank's traced laps, reduced lap by lap (each lap's
// observer has its own epoch, so spans of different laps never nest), and
// its checkpoint timings.
type rankTrace struct {
	steps          []stepTrace
	launchUs       []float64
	comm           commCounts       // summed over the traced steps
	ctr            map[string]int64 // counter deltas summed over the traced steps
	cols, colNs    int64
	ckptW, ckptR   []float64 // ms, barrier to barrier
	ckptCtrBytes   int64     // pario bytes counted over the checkpoint writes
	restartDigests [2]uint32 // traced model, freshly read model
}

// stepTrace is one core.step span broken down by layer, in nanoseconds.
type stepTrace struct {
	wall, atm, ocn, ice, self int64
	physics, dyn, ppBusy      int64
	nonKernel                 int64
	ocnCalls, iceCalls        int
}

// analyzeSteps nests a rank's window spans and breaks each core.step down.
func analyzeSteps(spans []span) ([]stepTrace, []float64, error) {
	var steps []stepTrace
	var launchUs []float64
	for _, root := range buildForest(spans) {
		if root.name != spanStep {
			return nil, nil, fmt.Errorf("trace: span %s outside any %s span", root.name, spanStep)
		}
		st := stepTrace{wall: root.dur()}
		var kids []span
		for _, k := range root.kids {
			kids = append(kids, k.span)
			switch k.name {
			case "atm":
				st.atm += k.dur()
				for _, l := range descendants(k, isLaunch) {
					if l.physics {
						st.physics += l.dur()
					} else {
						st.dyn += l.dur()
					}
				}
			case "ocn":
				st.ocn += k.dur()
				st.ocnCalls++
			case "ice":
				st.ice += k.dur()
				st.iceCalls++
			}
		}
		st.self = selfTime(root.span, kids)
		ls := descendants(root, isLaunch)
		for _, l := range ls {
			st.ppBusy += l.dur()
			launchUs = append(launchUs, float64(l.dur())/1e3)
		}
		st.nonKernel = st.wall - covered(root.start, root.end, ls)
		steps = append(steps, st)
	}
	return steps, launchUs, nil
}

// traceCoupled is the per-layer run of a coupled workload: untraced laps
// for half the time (the overhead baseline and the allocation counts), then
// traced laps for the other half, then checkpoint writes and reads on the
// last traced model.
func traceCoupled(w coupledWorkload, cfg core.Config, o runOpts) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	half := o.seconds / 2

	var errs rankErrs
	plain := make([]lapResult, w.ranks)
	traced := make([]lapResult, w.ranks)
	rts := make([]rankTrace, w.ranks)
	dir := filepath.Join(o.work, "warm")
	par.Run(w.ranks, func(c *par.Comm) {
		rank := c.Rank()
		if _, err := prepareWarm(cfg, c, w, o.seed, dir); err != nil {
			errs.add(rank, err)
			return
		}
		var err error
		plain[rank], err = runLaps(c, dir, half, o.scale, lapFuncs{
			build: func() (*core.ESM, error) { return core.NewWithOptions(cfg, c, w.options()...) },
			step:  (*core.ESM).Step,
		})
		if err != nil {
			errs.add(rank, err)
			return
		}

		rt := &rts[rank]
		rt.ctr = map[string]int64{}
		var (
			sink   *obs.MemorySink
			ob     *obs.Obs
			ts     *timedSpace
			cc     *columnCounter
			ev0    int
			comm0  commCounts
			ctr0   map[string]int64
			launch int
		)
		traced[rank], err = runLaps(c, dir, half, o.scale, lapFuncs{
			build: func() (*core.ESM, error) {
				sink = obs.NewMemorySink()
				ob = obs.New(rank, sink)
				cc = &columnCounter{}
				ts = &timedSpace{inner: w.space(), o: ob, cols: cc}
				return core.NewWithOptions(cfg, c, w.options(core.WithObserver(ob), core.WithSpace(ts))...)
			},
			begin: func(e *core.ESM) error {
				cc.inner = e.Atm.Physics
				e.Atm.Physics = cc
				ev0, launch = len(sink.Events()), len(ts.physics)
				comm0, ctr0 = commOf(c), counters(ob)
				return nil
			},
			step: func(e *core.ESM) bool {
				sp := ob.StartSpan(spanStep)
				ok := e.Step()
				sp.End()
				return ok
			},
			end: func(e *core.ESM) error {
				comm1, ctr1 := commOf(c), counters(ob)
				rt.comm = rt.comm.add(comm1.sub(comm0))
				for k := range ctr1 {
					rt.ctr[k] += counterDelta(ctr0, ctr1, k)
				}
				rt.cols += cc.calls.Load()
				rt.colNs += cc.busyNs.Load()
				spans, err := spansFrom(sink.Events()[ev0:], ts.physics[launch:])
				if err != nil {
					return err
				}
				st, lu, err := analyzeSteps(spans)
				rt.steps = append(rt.steps, st...)
				rt.launchUs = append(rt.launchUs, lu...)
				return err
			},
		})
		if err != nil {
			errs.add(rank, err)
			return
		}
		rt.ckptW, rt.ckptR, rt.ckptCtrBytes, rt.restartDigests, err =
			timeCheckpoints(cfg, c, traced[rank].last, ob, filepath.Join(o.work, "ckpt"), w.options())
		if err != nil {
			errs.add(rank, err)
		}
	})
	if err := errs.err(); err != nil {
		return nil, err
	}
	perRank := make([][]stepTrace, w.ranks)
	var launchUs []float64
	for r := range rts {
		if len(rts[r].steps) != len(traced[r].walls) {
			return nil, fmt.Errorf("rank %d: %d core.step spans for %d timed steps", r, len(rts[r].steps), len(traced[r].walls))
		}
		perRank[r] = rts[r].steps
		launchUs = append(launchUs, rts[r].launchUs...)
	}
	n := len(perRank[0])
	nPlain := len(plain[0].walls)

	checkLaps(out, "untraced", plain[0])
	checkLaps(out, "traced", traced[0])
	out.check("tracing-transparent", traced[0].digests[0] == plain[0].digests[0],
		"end-of-lap digest %08x traced, %08x untraced", traced[0].digests[0], plain[0].digests[0])
	// The layer-sum check on rank 0.
	var layerSum, wall float64
	for i, st := range perRank[0] {
		layerSum += float64(st.atm + st.ocn + st.ice + st.self)
		wall += traced[0].walls[i] * 1e9
	}
	resid := ratio(math.Abs(wall-layerSum), wall)
	out.check("layer-sum", resid <= layerSumTolerance,
		"rank 0 atm+ocn+ice+core.step self = %.1f ms of %.1f ms step wall (residual %.4f, tolerance %.2f)",
		layerSum/1e6, wall/1e6, resid, layerSumTolerance)
	d := rts[0].restartDigests
	out.check("restart-roundtrip", d[0] == d[1], "digest %08x written, %08x read back", d[0], d[1])

	m := out.metrics
	plainWalls := stepMax(plain)
	tracedWalls := stepMax(traced)
	ps := summarize(plainWalls)
	m["core.step_ms_p50"] = ps.P50 * 1e3
	m["core.step_ms_p90"] = ps.P90 * 1e3
	mem := plain[0].mem
	m["core.allocs_per_step"] = perStep(float64(mem.mallocs), nPlain)
	m["core.alloc_kb_per_step"] = perStep(float64(mem.bytes)/1024, nPlain)
	m["core.gc_per_100_steps"] = perStep(100*float64(mem.gcs), nPlain)
	m["core.layer_sum_residual"] = resid
	// Throughputs over the windows: steps per summed step wall.
	m["obs.overhead_frac"] = 1 - ratio(total(plainWalls)/float64(nPlain), total(tracedWalls)/float64(len(tracedWalls)))

	// Per-rank layer totals; time metrics take the maximum over ranks.
	maxOver := func(f func(r int) float64) float64 {
		v := math.Inf(-1)
		for r := range rts {
			v = math.Max(v, f(r))
		}
		return v
	}
	sumOver := func(f func(r int) float64) float64 {
		var v float64
		for r := range rts {
			v += f(r)
		}
		return v
	}
	tot := func(r int, f func(stepTrace) int64) float64 {
		var s int64
		for _, st := range perRank[r] {
			s += f(st)
		}
		return float64(s)
	}
	msPer := func(f func(stepTrace) int64) float64 {
		return maxOver(func(r int) float64 { return tot(r, f) / 1e6 / float64(n) })
	}
	share := func(f func(stepTrace) int64) float64 {
		return maxOver(func(r int) float64 { return ratio(tot(r, f), tot(r, func(s stepTrace) int64 { return s.wall })) })
	}
	perCall := func(f, calls func(stepTrace) int64) float64 {
		return maxOver(func(r int) float64 { return ratio(tot(r, f)/1e6, tot(r, calls)) })
	}
	ctr := func(name string) func(r int) float64 {
		return func(r int) float64 { return float64(rts[r].ctr[name]) }
	}

	m["core.nonkernel_ms_per_step"] = msPer(func(s stepTrace) int64 { return s.nonKernel })
	m["atmos.ms_per_step"] = msPer(func(s stepTrace) int64 { return s.atm })
	m["atmos.share"] = share(func(s stepTrace) int64 { return s.atm })
	m["atmos.physics.ms_per_step"] = msPer(func(s stepTrace) int64 { return s.physics })
	m["atmos.dyn.ms_per_step"] = msPer(func(s stepTrace) int64 { return s.dyn })
	m["atmos.physics.col_us"] = ratio(sumOver(func(r int) float64 { return float64(rts[r].colNs) })/1e3,
		sumOver(func(r int) float64 { return float64(rts[r].cols) }))
	m["atmos.physics.cols_per_step"] = maxOver(func(r int) float64 { return perStep(float64(rts[r].cols), n) })
	launches := func(r int) float64 { l, _ := launchCounts(rts[r].ctr); return l }
	iters := func(r int) float64 { _, i := launchCounts(rts[r].ctr); return i }
	m["pp.launches_per_step"] = maxOver(func(r int) float64 { return perStep(launches(r), n) })
	m["pp.iters_per_launch"] = ratio(sumOver(iters), sumOver(launches))
	m["pp.launch_us_p50"] = median(launchUs)
	m["pp.busy_ms_per_step"] = msPer(func(s stepTrace) int64 { return s.ppBusy })
	m["ocean.ms_per_call"] = perCall(func(s stepTrace) int64 { return s.ocn }, func(s stepTrace) int64 { return int64(s.ocnCalls) })
	m["ocean.share"] = share(func(s stepTrace) int64 { return s.ocn })
	m["seaice.ms_per_call"] = perCall(func(s stepTrace) int64 { return s.ice }, func(s stepTrace) int64 { return int64(s.iceCalls) })
	m["seaice.share"] = share(func(s stepTrace) int64 { return s.ice })

	m["coupler.rearrange.calls_per_step"] = maxOver(func(r int) float64 { return perStep(ctr(ctrRearrCalls)(r), n) })
	m["coupler.rearrange.kb_per_step"] = perStep(sumOver(ctr(ctrRearrBytes))/1024, n)
	m["par.msgs_per_step"] = perStep(sumOver(func(r int) float64 { return float64(rts[r].comm.msgs) }), n)
	m["par.kb_per_step"] = perStep(sumOver(func(r int) float64 { return float64(rts[r].comm.bytes) / 1024 }), n)
	m["par.collectives_per_step"] = maxOver(func(r int) float64 {
		return perStep(float64(rts[r].comm.collectives), n)
	})
	m["par.barriers_per_step"] = maxOver(func(r int) float64 { return perStep(float64(rts[r].comm.barriers), n) })
	m["par.halo.atm_kb_per_step"] = perStep(sumOver(ctr(ctrHaloBytesAtm))/1024, n)
	m["par.halo.ocn_kb_per_step"] = perStep(sumOver(ctr(ctrHaloBytesOcn))/1024, n)
	m["par.imbalance"] = imbalance(perRank)

	m["pario.ckpt_write_ms"] = median(rts[0].ckptW)
	m["pario.ckpt_read_ms"] = median(rts[0].ckptR)
	m["pario.ckpt_kb"] = sumOver(func(r int) float64 { return float64(rts[r].ckptCtrBytes) }) / 1024 / ckptReps

	for _, k := range []string{"ensemble.pool_busy_frac", "ensemble.replayed_steps", "ensemble.rollbacks", "ensemble.steals"} {
		m[k] = 0 // the coupled workloads run no ensemble
	}
	atmMs, rgMs, err := layerSetup(cfg)
	if err != nil {
		return nil, err
	}
	m["setup.atmos_ms"], m["setup.regrid_ms"] = atmMs, rgMs

	out.notes["steps_untraced"] = nPlain
	out.notes["steps_traced"] = n
	out.notes["step_ms_untraced"] = msSummary(ps)
	out.notes["step_ms_traced"] = msSummary(summarize(tracedWalls))
	out.notes["launches_timed"] = len(launchUs)
	out.notes["ckpt_reps"] = ckptReps
	return out, nil
}

// timeCheckpoints writes e's restart set ckptReps times and reads each back
// into a freshly built model, timing both barrier to barrier through the
// model's public restart calls (ReadRestart requires a fresh model). It
// returns the times in ms, the pario bytes ob counted over the writes, and
// the digests of e and of the last model read back. Collective.
func timeCheckpoints(cfg core.Config, c *par.Comm, e *core.ESM, ob *obs.Obs, dir string, opts []core.Option) (
	writeMs, readMs []float64, bytes int64, digests [2]uint32, err error) {
	b0 := counters(ob)[ctrParioBytes]
	var fresh *core.ESM
	for i := 0; i < ckptReps; i++ {
		c.Barrier()
		t := time.Now()
		werr := e.WriteRestart(dir, 1)
		c.Barrier()
		writeMs = append(writeMs, time.Since(t).Seconds()*1e3)
		if werr != nil {
			return nil, nil, 0, digests, fmt.Errorf("checkpoint write: %w", werr)
		}
		if fresh, err = core.NewWithOptions(cfg, c, opts...); err != nil {
			return nil, nil, 0, digests, err
		}
		c.Barrier()
		t = time.Now()
		rerr := fresh.ReadRestart(dir, 1)
		c.Barrier()
		readMs = append(readMs, time.Since(t).Seconds()*1e3)
		if rerr != nil {
			return nil, nil, 0, digests, fmt.Errorf("checkpoint read: %w", rerr)
		}
	}
	bytes = counters(ob)[ctrParioBytes] - b0
	digests[0], _ = digest(e)
	digests[1], _ = digest(fresh)
	return writeMs, readMs, bytes, digests, nil
}

// imbalance is the mean over steps of the spread in kernel-busy time
// between ranks, divided by that step's wall (the slower rank's).
func imbalance(perRank [][]stepTrace) float64 {
	if len(perRank) < 2 {
		return 0
	}
	var acc float64
	n := len(perRank[0])
	for i := 0; i < n; i++ {
		lo, hi, wall := math.Inf(1), math.Inf(-1), 0.0
		for _, st := range perRank {
			b := float64(st[i].ppBusy)
			lo, hi = math.Min(lo, b), math.Max(hi, b)
			wall = math.Max(wall, float64(st[i].wall))
		}
		acc += ratio(hi-lo, wall)
	}
	return acc / float64(n)
}
