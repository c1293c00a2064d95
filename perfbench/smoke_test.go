package main

import (
	"testing"
)

// smokeScale runs every workload in a few steps: three timed steps per lap
// and one ensemble of two one-hour members.
var smokeScale = scale{lapSteps: 3, members: 2, hours: 1, minReps: 1}

func smokeRun(t *testing.T, workload string, trace bool) map[string]float64 {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	o := runOpts{seed: 3, seconds: 0.01, trace: trace, work: t.TempDir(), scale: smokeScale}
	var out *outcome
	if workload == "ensemble-ckpt" {
		out, err = runEnsemble(o)
	} else {
		out, err = runCoupled(coupledWorkloads[workload], o)
	}
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	for _, c := range out.checks {
		if !c.OK {
			t.Errorf("%s (trace %v): check %s failed: %s", workload, trace, c.Name, c.Detail)
		}
	}
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("%s (trace %v): attempted %d, failed %d", workload, trace, out.attempted, out.failed)
	}
	if err := validateMetrics(sp.metrics(trace), out.metrics); err != nil {
		t.Errorf("%s (trace %v): %v", workload, trace, err)
	}
	return out.metrics
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the coupled model")
	}
	for _, w := range []string{"coupled-1r", "coupled-2r", "ensemble-ckpt"} {
		m := smokeRun(t, w, false)
		for _, k := range []string{"sypd", "members_per_hour", "setup_s", "mem_peak_mb"} {
			if m[k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, k, m[k])
			}
		}
	}
}

// TestSmokeTracedSeparatesLayers checks that the traced runs separate the
// layers as the workloads claim: no coupler or par traffic on one rank,
// both on two ranks, and checkpoint traffic in the ensemble.
func TestSmokeTracedSeparatesLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the coupled model")
	}
	one := smokeRun(t, "coupled-1r", true)
	two := smokeRun(t, "coupled-2r", true)
	ens := smokeRun(t, "ensemble-ckpt", true)
	for _, k := range []string{"coupler.rearrange.calls_per_step", "coupler.rearrange.kb_per_step",
		"par.msgs_per_step", "par.kb_per_step", "par.halo.atm_kb_per_step", "par.halo.ocn_kb_per_step"} {
		if one[k] != 0 {
			t.Errorf("coupled-1r: %s = %v, want 0", k, one[k])
		}
		if two[k] <= 0 {
			t.Errorf("coupled-2r: %s = %v, want > 0", k, two[k])
		}
	}
	for _, k := range []string{"pario.ckpt_write_ms", "pario.ckpt_read_ms", "pario.ckpt_kb", "ensemble.rollbacks", "ensemble.replayed_steps"} {
		if ens[k] <= 0 {
			t.Errorf("ensemble-ckpt: %s = %v, want > 0", k, ens[k])
		}
	}
	for _, k := range []string{"atmos.physics.cols_per_step", "pp.launches_per_step", "core.step_ms_p50"} {
		if one[k] <= 0 {
			t.Errorf("coupled-1r: %s = %v, want > 0", k, one[k])
		}
	}
}
