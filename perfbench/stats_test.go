package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"odd count median", []float64{3, 1, 2}, 0.5, 2},
		{"even count median interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"single sample", []float64{7}, 0.9, 7},
		{"minimum", []float64{5, 1, 9}, 0, 1},
		{"maximum", []float64{5, 1, 9}, 1, 9},
		{"p90 of 1..11", []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 10},
		{"p25 of 1..4", []float64{1, 2, 3, 4}, 0.25, 1.75},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of an empty sample = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	s := summarize(xs)
	if s.N != 100 {
		t.Fatalf("N = %d, want 100", s.N)
	}
	if s.P50 != 50.5 || math.Abs(s.P90-90.1) > 1e-9 || s.P25 != 25.75 || s.P75 != 75.25 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRatesFromCounters(t *testing.T) {
	before := map[string]int64{"par.send.msgs": 10, "par.send.bytes": 4096}
	after := map[string]int64{"par.send.msgs": 40, "par.send.bytes": 4096 + 3*2048, "new": 5}
	if got := perStep(float64(counterDelta(before, after, "par.send.msgs")), 3); got != 10 {
		t.Errorf("msgs per step = %v, want 10", got)
	}
	if got := perStep(float64(counterDelta(before, after, "par.send.bytes"))/1024, 3); got != 2 {
		t.Errorf("KiB per step = %v, want 2", got)
	}
	if got := counterDelta(before, after, "new"); got != 5 {
		t.Errorf("delta of a counter born in the window = %d, want 5", got)
	}
	if got := perStep(7, 0); got != 0 {
		t.Errorf("perStep over no steps = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
	// 180 steps of 480 s each is one simulated day; taking one wall-clock
	// day for it is 1/365 SYPD.
	if got := sypd(180*480, 86400); math.Abs(got-1.0/365) > 1e-15 {
		t.Errorf("sypd = %v, want %v", got, 1.0/365)
	}
	if got := membersPerHourEquivalent(480, 1, 3); got != 160 {
		t.Errorf("members per hour = %v, want 160", got)
	}
	// Window rates count every step: one slow coupling step in five (the
	// ocean's) halves the rate although the median step is unchanged.
	walls := []float64{1, 1, 1, 1, 6, 1, 1, 1, 1, 1}
	if got := total(walls); got != 15 {
		t.Errorf("total = %v, want 15", got)
	}
	laps := lapSYPD(walls, 10*480, 2)
	if want := []float64{sypd(5*480, 10), sypd(5*480, 5)}; len(laps) != 2 || laps[0] != want[0] || laps[1] != want[1] {
		t.Errorf("lap SYPD = %v, want %v", laps, want)
	}
}

func TestValidateMetrics(t *testing.T) {
	want := []specMetric{{Name: "sypd", Unit: "SYPD"}, {Name: "setup_s", Unit: "s"}}
	for _, tc := range []struct {
		name string
		got  map[string]float64
		err  string
	}{
		{"complete", map[string]float64{"sypd": 40, "setup_s": 0.01}, ""},
		{"missing", map[string]float64{"sypd": 40}, `"setup_s" missing`},
		{"extra", map[string]float64{"sypd": 40, "setup_s": 0.01, "bogus": 1}, `"bogus" is not in the specification`},
		{"nan", map[string]float64{"sypd": math.NaN(), "setup_s": 0.01}, `"sypd" is NaN`},
		{"inf", map[string]float64{"sypd": 40, "setup_s": math.Inf(1)}, `"setup_s" is +Inf`},
	} {
		err := validateMetrics(want, tc.got)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		}
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if _, err := workloadLoad(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	if sp.hasWorkload("no-such-workload") {
		t.Error("hasWorkload accepted an unknown name")
	}
	if len(sp.metrics(false)) == 0 || len(sp.metrics(true)) == 0 {
		t.Error("the specification lists no metrics")
	}
}
