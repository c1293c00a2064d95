package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/typhoon"
)

// The ensemble workload: short members over a pool of single-rank Serial
// groups with the work-stealing scheduler, checkpointing every few steps
// with the conservation audit on, one member carrying a transient NaN fault
// so it rolls back and replays. Short members make construction, restart
// writes and reads, audit collectives and scheduling a large share of the
// wall time.
const (
	// ensembleGroups × ensembleRanks is the workload's processor load.
	ensembleGroups    = 2
	ensembleRanks     = 1
	ensembleCkptEvery = 4
	// ensembleFaultHit is the esm.step call at which the faulted member's
	// NaN fires: after its first checkpoint, so the rollback reads a
	// restart set and replays the steps since.
	ensembleFaultHit = 6
	// residualGate is the conservation audit's bound on the heat and
	// freshwater residuals.
	residualGate = 1e-10
)

// faultedMember picks which non-control member carries the fault.
func faultedMember(seed int64, members int) int {
	k := int64(members - 1)
	return 1 + int(((seed%k)+k)%k)
}

func ensembleConfig(seed int64, dir string, sc scale, ob obs.Observer) ensemble.Config {
	return ensemble.Config{
		Label:           configLabel,
		Members:         sc.members,
		Groups:          ensembleGroups,
		Ranks:           ensembleRanks,
		Hours:           sc.hours,
		CheckpointEvery: ensembleCkptEvery,
		Seed:            seed,
		BaseDir:         dir,
		Sched:           ensemble.SchedSteal,
		Perturb:         typhoon.DefaultPerturbation(),
		MemberFaults:    map[int]string{faultedMember(seed, sc.members): fmt.Sprintf("nan@esm.step:%d", ensembleFaultHit)},
		Obs:             ob,
	}
}

// memberOptions are the assembly options ensemble.Run gives each member.
func memberOptions(hours float64) []core.Option {
	start := modelStart
	return []core.Option{
		core.WithInterval(start, start.Add(time.Duration(hours*float64(time.Hour)))),
		core.WithSpace(pp.Serial{}),
		core.WithObserver(obs.Nop{}),
		core.WithRemap(core.RemapCons),
		core.WithAudit(true),
	}
}

// ensembleRep is one timed ensemble.
type ensembleRep struct {
	makespan float64 // seconds
	report   *ensemble.Report
	err      error // a missed quorum; the report is still complete
	obs      *obs.Obs
	sink     *obs.MemorySink
}

// runEnsembles runs whole ensembles back to back until seconds have passed
// and at least the scale's minimum have run. traced attaches a fresh observer
// with an in-memory sink to each.
func runEnsembles(o runOpts, seconds float64, traced bool) ([]ensembleRep, error) {
	var reps []ensembleRep
	start := time.Now()
	for i := 0; len(reps) < o.scale.minReps || time.Since(start).Seconds() < seconds; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("ens-%d", i))
		rep := ensembleRep{}
		var ob obs.Observer = obs.Nop{}
		if traced {
			rep.sink = obs.NewMemorySink()
			rep.obs = obs.New(0, rep.sink)
			ob = rep.obs
		}
		cfg := ensembleConfig(o.seed, dir, o.scale, ob)
		runtime.GC() // each ensemble starts from a heap holding no earlier models
		t := time.Now()
		r, err := ensemble.Run(cfg)
		rep.makespan = time.Since(t).Seconds()
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			return nil, fmt.Errorf("removing %s: %w", dir, rmErr)
		}
		if r == nil {
			return nil, err
		}
		rep.report, rep.err = r, err
		reps = append(reps, rep)
	}
	return reps, nil
}

// checkEnsembles records the correctness checks over a set of ensembles and
// counts every member as an operation; a member that did not complete
// failed. A recovered rollback is not a failure.
func checkEnsembles(out *outcome, label string, seed int64, reps []ensembleRep) {
	var incomplete, noRollback []string
	var heat, fw float64
	for i, rep := range reps {
		r := rep.report
		out.attempted += len(r.Members)
		out.failed += len(r.Members) - r.Completed
		if rep.err != nil || r.Completed != len(r.Members) {
			incomplete = append(incomplete, fmt.Sprintf("ensemble %d: %d of %d completed (%v)", i, r.Completed, len(r.Members), rep.err))
		}
		heat = math.Max(heat, r.Spread.HeatResidMax)
		fw = math.Max(fw, r.Spread.FWResidMax)
		if f := faultedMember(seed, len(r.Members)); r.Members[f].Rollbacks < 1 {
			noRollback = append(noRollback, fmt.Sprintf("ensemble %d: %s", i, r.Members[f].Spec.Name))
		}
	}
	out.check(label+"-complete", len(incomplete) == 0, "%d ensembles, incomplete: %v", len(reps), incomplete)
	out.check(label+"-budget", heat <= residualGate && fw <= residualGate,
		"max heat residual %.3g, max freshwater residual %.3g (gate %.0e)", heat, fw, residualGate)
	out.check(label+"-rollback", len(noRollback) == 0, "faulted member without a rollback: %v", noRollback)
}

func completedSteps(r *ensemble.Report) int {
	n := 0
	for _, m := range r.Members {
		if m.Completed {
			n += m.Steps
		}
	}
	return n
}

// throughput is completed members over the summed makespans of a set of
// ensembles: the rate a user running ensembles back to back sees.
type throughput struct {
	membersPerHour, sypd float64
}

func windowRates(reps []ensembleRep, hours float64) throughput {
	var done, wall float64
	for _, r := range reps {
		done += float64(r.report.Completed)
		wall += r.makespan
	}
	return throughput{membersPerHour: 3600 * done / wall, sypd: sypd(done*hours*3600, wall)}
}

// runEnsemble is the ensemble workload's run.
func runEnsemble(o runOpts) (*outcome, error) {
	cfg, err := core.ConfigForLabel(configLabel)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, notes: map[string]any{}}
	if o.trace {
		return traceEnsemble(cfg, o, out)
	}
	setup, err := measureSetup(cfg, ensembleRanks, memberOptions(o.scale.hours))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	reps, err := runEnsembles(o, o.seconds, false)
	if err != nil {
		return nil, err
	}
	checkEnsembles(out, "ensembles", o.seed, reps)
	peak, sys, err := memPeak()
	if err != nil {
		return nil, err
	}
	var spans []float64
	for _, r := range reps {
		spans = append(spans, r.makespan)
	}
	all := windowRates(reps, o.scale.hours)
	out.metrics["members_per_hour"] = all.membersPerHour
	out.metrics["sypd"] = all.sypd
	out.metrics["setup_s"] = median(setup)
	out.metrics["mem_peak_mb"] = peak
	out.notes["memstats_sys_mb"] = sys
	out.notes["ensembles"] = len(reps)
	out.notes["makespan_s"] = spans
	out.notes["setup_ms"] = msSummary(summarize(setup))
	return out, nil
}

// traceEnsemble is the ensemble's per-layer run: untraced ensembles for half
// the time (the overhead baseline and allocation counts), traced ones for
// the other half, then checkpoint timings on a member-configured model.
func traceEnsemble(cfg core.Config, o runOpts, out *outcome) (*outcome, error) {
	half := o.seconds / 2
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := runEnsembles(o, half, false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	traced, err := runEnsembles(o, half, true)
	if err != nil {
		return nil, err
	}
	checkEnsembles(out, "untraced", o.seed, plain)
	checkEnsembles(out, "traced", o.seed, traced)

	plainSteps := 0
	for _, r := range plain {
		plainSteps += completedSteps(r.report)
	}
	var atm, ocn, ice float64
	var atmN, ocnN, iceN, done int
	var makespan, rollbacks, steals float64
	ctr := map[string]int64{}
	for _, r := range traced {
		for _, ev := range r.sink.Events() {
			if ev.Kind != "span" {
				continue
			}
			switch ev.Name {
			case "atm":
				atm += float64(ev.DurNs)
				atmN++
			case "ocn":
				ocn += float64(ev.DurNs)
				ocnN++
			case "ice":
				ice += float64(ev.DurNs)
				iceN++
			}
		}
		for k, v := range counters(r.obs) {
			ctr[k] += v
		}
		done += completedSteps(r.report)
		makespan += r.makespan * 1e9
		steals += float64(r.report.Steals)
		for _, m := range r.report.Members {
			rollbacks += float64(m.Rollbacks)
		}
	}
	nEns := float64(len(traced))
	// atm rings on every coupling step, so its span count is the number of
	// steps executed, replays included.
	executed := atmN
	pool := float64(ensembleGroups) * makespan

	// Checkpoint timings on one member-configured model.
	var ckW, ckR []float64
	var digests [2]uint32
	var errs rankErrs
	par.Run(ensembleRanks, func(c *par.Comm) {
		ob := obs.New(c.Rank(), nil)
		opts := append(memberOptions(o.scale.hours), core.WithObserver(ob))
		e, err := buildSeeded(cfg, c, o.seed, opts)
		if err != nil {
			errs.add(c.Rank(), err)
			return
		}
		for i := 0; i < ensembleCkptEvery; i++ {
			e.Step()
		}
		ckW, ckR, _, digests, err = timeCheckpoints(cfg, c, e, ob, filepath.Join(o.work, "ckpt"), memberOptions(o.scale.hours))
		if err != nil {
			errs.add(c.Rank(), err)
		}
	})
	if err := errs.err(); err != nil {
		return nil, err
	}
	out.check("restart-roundtrip", digests[0] == digests[1], "digest %08x written, %08x read back", digests[0], digests[1])

	m := out.metrics
	for _, k := range []string{
		"core.step_ms_p50", "core.step_ms_p90", "core.nonkernel_ms_per_step", "core.layer_sum_residual",
		"atmos.physics.ms_per_step", "atmos.physics.col_us", "atmos.physics.cols_per_step", "atmos.dyn.ms_per_step",
		"pp.launch_us_p50", "pp.busy_ms_per_step", "par.barriers_per_step", "par.imbalance",
	} {
		m[k] = 0 // not observable from outside ensemble.Run, which builds its own models
	}
	m["core.allocs_per_step"] = perStep(float64(ms1.Mallocs-ms0.Mallocs), plainSteps)
	m["core.alloc_kb_per_step"] = perStep(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, plainSteps)
	// NumGC also counts the collection forced before each ensemble.
	m["core.gc_per_100_steps"] = perStep(100*float64(int(ms1.NumGC-ms0.NumGC)-len(plain)), plainSteps)
	m["atmos.ms_per_step"] = ratio(atm/1e6, float64(atmN))
	m["atmos.share"] = ratio(atm, pool)
	launches, iters := launchCounts(ctr)
	m["pp.launches_per_step"] = perStep(launches, executed)
	m["pp.iters_per_launch"] = ratio(iters, launches)
	m["ocean.ms_per_call"] = ratio(ocn/1e6, float64(ocnN))
	m["ocean.share"] = ratio(ocn, pool)
	m["seaice.ms_per_call"] = ratio(ice/1e6, float64(iceN))
	m["seaice.share"] = ratio(ice, pool)
	m["coupler.rearrange.calls_per_step"] = perStep(float64(ctr[ctrRearrCalls]), executed)
	m["coupler.rearrange.kb_per_step"] = perStep(float64(ctr[ctrRearrBytes])/1024, executed)
	m["par.msgs_per_step"] = perStep(float64(ctr["par.send.msgs"]), executed)
	m["par.kb_per_step"] = perStep(float64(ctr["par.send.bytes"])/1024, executed)
	m["par.collectives_per_step"] = perStep(float64(ctr["par.collective.calls"]), executed)
	m["par.halo.atm_kb_per_step"] = perStep(float64(ctr[ctrHaloBytesAtm])/1024, executed)
	m["par.halo.ocn_kb_per_step"] = perStep(float64(ctr[ctrHaloBytesOcn])/1024, executed)
	m["pario.ckpt_write_ms"] = median(ckW)
	m["pario.ckpt_read_ms"] = median(ckR)
	m["pario.ckpt_kb"] = ratio(float64(ctr[ctrParioBytes])/1024, float64(ctr[ctrParioCalls]))
	m["ensemble.pool_busy_frac"] = ratio(atm+ocn+ice, pool)
	m["ensemble.replayed_steps"] = float64(executed-done) / nEns
	m["ensemble.rollbacks"] = rollbacks / nEns
	m["ensemble.steals"] = steals / nEns
	atmMs, rgMs, err := layerSetup(cfg)
	if err != nil {
		return nil, err
	}
	m["setup.atmos_ms"], m["setup.regrid_ms"] = atmMs, rgMs
	m["obs.overhead_frac"] = 1 - ratio(windowRates(traced, o.scale.hours).membersPerHour, windowRates(plain, o.scale.hours).membersPerHour)

	out.notes["ensembles_untraced"] = len(plain)
	out.notes["ensembles_traced"] = len(traced)
	out.notes["steps_executed_traced"] = executed
	out.notes["checkpoints_written_traced"] = ctr[ctrParioCalls]
	out.notes["ckpt_reps"] = ckptReps
	return out, nil
}
