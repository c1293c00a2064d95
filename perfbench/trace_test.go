package main

import (
	"testing"

	"repro/internal/obs"
)

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi int64
		ivs    []span
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, []span{{start: 10, end: 20}, {start: 30, end: 45}}, 25},
		{"overlapping count once", 0, 100, []span{{start: 10, end: 40}, {start: 30, end: 50}}, 40},
		{"nested count once", 0, 100, []span{{start: 10, end: 60}, {start: 20, end: 30}}, 50},
		{"touching", 0, 100, []span{{start: 10, end: 20}, {start: 20, end: 30}}, 20},
		{"clipped to the parent", 50, 100, []span{{start: 40, end: 60}, {start: 90, end: 120}}, 20},
		{"outside the parent", 50, 100, []span{{start: 0, end: 40}}, 0},
	} {
		if got := covered(tc.lo, tc.hi, tc.ivs); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{name: "p", start: 0, end: 100}
	kids := []span{{start: 10, end: 40}, {start: 30, end: 60}, {start: 90, end: 110}}
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestBuildForestNestsByContainment(t *testing.T) {
	spans := []span{ // in the order spans close, as a sink receives them
		{name: spanFor, start: 12, end: 18},
		{name: "atm", start: 10, end: 40},
		{name: "ice", start: 41, end: 45},
		{name: spanStep, start: 5, end: 50},
		{name: spanStep, start: 50, end: 60},
	}
	roots := buildForest(spans)
	if len(roots) != 2 || roots[0].name != spanStep || roots[1].name != spanStep {
		t.Fatalf("roots = %+v", roots)
	}
	r := roots[0]
	if len(r.kids) != 2 || r.kids[0].name != "atm" || r.kids[1].name != "ice" {
		t.Fatalf("step children = %+v", r.kids)
	}
	if len(r.kids[0].kids) != 1 || r.kids[0].kids[0].name != spanFor {
		t.Fatalf("atm children = %+v", r.kids[0].kids)
	}
	if got := descendants(r, isLaunch); len(got) != 1 || got[0].start != 12 {
		t.Errorf("launches under the step = %+v", got)
	}
}

func TestSpansFromAttachesLaunches(t *testing.T) {
	events := []obs.Event{
		{Kind: "span", Name: spanFor, StartNs: 1, DurNs: 2},
		{Kind: "counter", Name: "x"},
		{Kind: "span", Name: "atm", StartNs: 0, DurNs: 5},
		{Kind: "span", Name: spanReduce, StartNs: 6, DurNs: 1},
	}
	launches := []bool{true, false}
	spans, err := spansFrom(events, launches)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 || !spans[0].physics || spans[2].physics || spans[0].end != 3 {
		t.Errorf("spans = %+v", spans)
	}
	if _, err := spansFrom(events, launches[:1]); err == nil {
		t.Error("a pp span without a recorded launch was accepted")
	}
	if _, err := spansFrom(events[:1], launches); err == nil {
		t.Error("a recorded launch without a pp span was accepted")
	}
}

func TestAnalyzeSteps(t *testing.T) {
	spans := []span{
		{name: spanStep, start: 0, end: 100},
		{name: "ocn", start: 2, end: 12},
		{name: spanFor, start: 3, end: 10},
		{name: "atm", start: 15, end: 90},
		{name: spanFor, start: 20, end: 40},
		{name: spanFor, start: 50, end: 80, physics: true},
		{name: "ice", start: 92, end: 96},
	}
	steps, launchUs, err := analyzeSteps(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || len(launchUs) != 3 {
		t.Fatalf("steps %+v, launches %v", steps, launchUs)
	}
	st := steps[0]
	want := stepTrace{
		wall: 100, atm: 75, ocn: 10, ice: 4, self: 11,
		physics: 30, dyn: 20, ppBusy: 57, nonKernel: 43,
		ocnCalls: 1, iceCalls: 1,
	}
	if st != want {
		t.Errorf("step trace\n got %+v\nwant %+v", st, want)
	}
	if st.atm+st.ocn+st.ice+st.self != st.wall {
		t.Error("layers plus self time do not sum to the step wall")
	}
	if _, _, err := analyzeSteps([]span{{name: "atm", start: 0, end: 1}}); err == nil {
		t.Error("a span outside any step was accepted")
	}
}

func TestImbalance(t *testing.T) {
	if got := imbalance([][]stepTrace{{{wall: 10, ppBusy: 5}}}); got != 0 {
		t.Errorf("one rank: imbalance = %v, want 0", got)
	}
	ranks := [][]stepTrace{
		{{wall: 100, ppBusy: 60}, {wall: 100, ppBusy: 50}},
		{{wall: 80, ppBusy: 40}, {wall: 100, ppBusy: 50}},
	}
	// Step 0: (60-40)/100; step 1: 0. Mean 0.1.
	if got := imbalance(ranks); got != 0.1 {
		t.Errorf("imbalance = %v, want 0.1", got)
	}
}
