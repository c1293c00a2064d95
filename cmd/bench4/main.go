// Command bench4 measures what the ocean + sea-ice 2D decomposition bought:
// the coupled steps/sec of the fully-decomposed dataflow (atmosphere, land,
// ocean, and ice all partitioned) against the fully-replicated baseline at
// 1, 2, 4, 8, and 16 ranks, the ocean halo traffic through the unified
// cpl.halo.* counters, and the steady-state allocation count of the batched
// tripolar exchange. It writes the result as BENCH_4.json next to bench3's
// BENCH_3.json and validates its own output before exiting, including the
// acceptance gates: the coupled speedup at 4 ranks must strictly beat
// BENCH_3's atmosphere-only decomposition speedup, it must keep improving
// from 4 to 8 ranks, and the decomposed dataflow must be strictly faster
// than the replicated one at 8 and 16 ranks.
//
//	bench4 [-config 25v10] [-steps 45] [-remap cons] [-out BENCH_4.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// bench3Speedup4 is BENCH_3's recorded 4-rank speedup — the floor the
// coupled decomposition must beat. Overridden by the live BENCH_3.json when
// present.
const bench3Speedup4 = 1.858951737221757

// rankResult is one rank count's replicated-vs-decomposed comparison.
type rankResult struct {
	Ranks int `json:"ranks"`

	ReplicatedStepsPerSec float64 `json:"replicated_steps_per_sec"`
	DecomposedStepsPerSec float64 `json:"decomposed_steps_per_sec"`
	Speedup               float64 `json:"speedup"`
	ReplicatedSYPD        float64 `json:"replicated_sypd"`
	DecomposedSYPD        float64 `json:"decomposed_sypd"`

	// Halo traffic of the decomposed run (rank 0's unified counters).
	OcnHaloMsgs  int64 `json:"ocn_halo_msgs"`
	OcnHaloBytes int64 `json:"ocn_halo_bytes"`
	AtmHaloMsgs  int64 `json:"atm_halo_msgs"`
	AtmHaloBytes int64 `json:"atm_halo_bytes"`
}

// result is the benchmark record `make check` consumes.
type result struct {
	Name    string `json:"name"`
	Config  string `json:"config"`
	Steps   int    `json:"steps"`
	Backend string `json:"backend"`
	Remap   string `json:"remap"`

	Results []rankResult `json:"results"`

	// BENCH_3's 4-rank speedup, the gate floor (the compiled-in constant
	// when BENCH_3.json is absent).
	Bench3Speedup4 float64 `json:"bench3_speedup_4ranks"`

	// Steady-state allocation audit of the batched tripolar halo exchange
	// (2-rank, scalar + vector fields).
	OcnHaloAllocsPerExchange float64 `json:"ocn_halo_allocs_per_exchange"`

	WallSec   float64 `json:"wall_sec"`
	Timestamp string  `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench4: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	steps := flag.Int("steps", 45, "coupling steps to time per dataflow")
	remapName := flag.String("remap", "cons", "flux remap mode (nn or cons)")
	out := flag.String("out", "BENCH_4.json", "output path")
	flag.Parse()

	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	remap, err := core.ParseRemap(*remapName)
	if err != nil {
		log.Fatal(err)
	}
	sp := pp.Serial{}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

	wall := time.Now()
	res := result{
		Name:    "ocn-2d-decomposition",
		Config:  cfg.Label,
		Steps:   *steps,
		Backend: sp.Name(),
		Remap:   remap.String(),

		Bench3Speedup4:           bench3Speedup4,
		OcnHaloAllocsPerExchange: measureOcnHaloAllocs(),
	}
	if s, err := readBench3Speedup("BENCH_3.json"); err == nil && s > 0 {
		res.Bench3Speedup4 = s
	}
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		rep := runDataflow(cfg, remap, ranks, *steps, false, sp, start)
		dec := runDataflow(cfg, remap, ranks, *steps, true, sp, start)
		rr := rankResult{
			Ranks:                 ranks,
			ReplicatedStepsPerSec: rep.stepsPerSec,
			DecomposedStepsPerSec: dec.stepsPerSec,
			ReplicatedSYPD:        rep.sypd,
			DecomposedSYPD:        dec.sypd,
			OcnHaloMsgs:           dec.ocnHaloMsgs,
			OcnHaloBytes:          dec.ocnHaloBytes,
			AtmHaloMsgs:           dec.atmHaloMsgs,
			AtmHaloBytes:          dec.atmHaloBytes,
		}
		if rep.stepsPerSec > 0 {
			rr.Speedup = dec.stepsPerSec / rep.stepsPerSec
		}
		res.Results = append(res.Results, rr)
	}
	res.WallSec = time.Since(wall).Seconds()
	res.Timestamp = time.Now().UTC().Format(time.RFC3339)

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := validate(*out); err != nil {
		log.Fatalf("self-validation of %s failed: %v", *out, err)
	}
	for _, rr := range res.Results {
		fmt.Printf("%s ranks=%d: replicated %.2f steps/s, decomposed %.2f steps/s (%.2fx), ocn halo %d msgs / %d bytes\n",
			res.Name, rr.Ranks, rr.ReplicatedStepsPerSec, rr.DecomposedStepsPerSec, rr.Speedup, rr.OcnHaloMsgs, rr.OcnHaloBytes)
	}
	fmt.Printf("tripolar exchange: %.1f allocs/op in steady state -> %s\n", res.OcnHaloAllocsPerExchange, *out)
}

// dataflowRun is one dataflow's measurement.
type dataflowRun struct {
	stepsPerSec  float64
	sypd         float64
	ocnHaloMsgs  int64
	ocnHaloBytes int64
	atmHaloMsgs  int64
	atmHaloBytes int64
}

// runDataflow times `steps` coupling steps of a fresh model with both
// domain decompositions on or off together: decomp=false is the
// no-decomposition baseline (every rank computes every component in full),
// decomp=true the production dataflow. It runs three laps over the same
// model and keeps the fastest — the first lap doubles as warm-up for
// one-time buffer growth, which would otherwise bias the comparison
// against the decomposed dataflow, and best-of-N damps scheduler noise on
// an oversubscribed host — and reports the halo traffic of the last lap,
// the deterministic steady-state volume of `steps` couplings.
func runDataflow(cfg core.Config, remap core.RemapMode, ranks, steps int, decomp bool, sp pp.Space, start time.Time) dataflowRun {
	var r dataflowRun
	par.Run(ranks, func(c *par.Comm) {
		handle := obs.New(c.Rank(), nil)
		e, err := core.NewWithOptions(cfg, c,
			core.WithInterval(start, start.Add(240*time.Hour)),
			core.WithSpace(sp),
			core.WithObserver(handle),
			core.WithRemap(remap),
			core.WithAtmDecomp(decomp),
			core.WithOcnDecomp(decomp))
		if err != nil {
			log.Fatal(err)
		}
		reg := handle.Registry()
		counters := func() [4]int64 {
			return [4]int64{
				reg.Counter(obs.Labeled("cpl.halo.msgs", "component", "ocn")).Value(),
				reg.Counter(obs.Labeled("cpl.halo.bytes", "component", "ocn")).Value(),
				reg.Counter(obs.Labeled("cpl.halo.msgs", "component", "atm")).Value(),
				reg.Counter(obs.Labeled("cpl.halo.bytes", "component", "atm")).Value(),
			}
		}
		const laps = 3
		var before [4]int64
		for lap := 0; lap < laps; lap++ {
			if lap == laps-1 {
				before = counters()
			}
			t0 := time.Now()
			sypd, err := e.MeasureSYPD(steps)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(t0).Seconds()
			if c.Rank() != 0 || elapsed <= 0 {
				continue
			}
			if sps := float64(steps) / elapsed; sps > r.stepsPerSec {
				r.stepsPerSec, r.sypd = sps, sypd
			}
		}
		if c.Rank() != 0 {
			return
		}
		after := counters()
		r.ocnHaloMsgs = after[0] - before[0]
		r.ocnHaloBytes = after[1] - before[1]
		r.atmHaloMsgs = after[2] - before[2]
		r.atmHaloBytes = after[3] - before[3]
	})
	return r
}

// measureOcnHaloAllocs returns the steady-state heap allocations per batched
// tripolar halo exchange on 2 ranks: rank 0 measures a Mallocs delta while
// rank 1 drives the matching exchanges.
func measureOcnHaloAllocs() float64 {
	// The ranks share one P for the measurement. A rank that parks on its
	// mailbox takes a runtime sudog from its P's cache, and the cache of
	// whichever P it wakes on gets it back; across two Ps one cache
	// drains, and once mallocsPer's runtime.GC() has emptied the central
	// cache the runtime allocates a fresh sudog, counted here though the
	// exchange code allocates nothing. On one P the warm-up fills the only
	// cache, so the delta counts the exchanges alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const iters = 100
	var allocs float64
	par.Run(2, func(c *par.Comm) {
		g, err := grid.NewTripolar(48, 24, 10)
		if err != nil {
			log.Fatal(err)
		}
		d, err := grid.NewTripolarDecompLayout(g, c, 2, 1, 1)
		if err != nil {
			log.Fatal(err)
		}
		const nlev = 10
		n2 := d.LNI() * d.LNJ()
		fields := []grid.HaloField{
			{Data: make([]float64, nlev*n2), NLev: nlev},
			{Data: make([]float64, nlev*n2), NLev: nlev},
			{Data: make([]float64, nlev*n2), NLev: nlev, Vec: true},
			{Data: make([]float64, nlev*n2), NLev: nlev, Vec: true},
			{Data: make([]float64, n2), NLev: 1},
		}
		step := func() { d.ExchangeFields(fields) }
		step() // warm both parity buffers
		step()
		c.Barrier()
		if c.Rank() == 0 {
			allocs = mallocsPer(iters, step)
		} else {
			for i := 0; i < iters; i++ {
				step()
			}
		}
		c.Barrier()
	})
	return allocs
}

// mallocsPer reports the mean heap allocations of f over iters calls,
// measured with a runtime.MemStats Mallocs delta.
func mallocsPer(iters int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// readBench3Speedup pulls the 4-rank speedup out of bench3's record.
func readBench3Speedup(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var rec struct {
		Results []struct {
			Ranks   int     `json:"ranks"`
			Speedup float64 `json:"speedup"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return 0, err
	}
	for _, rr := range rec.Results {
		if rr.Ranks == 4 {
			return rr.Speedup, nil
		}
	}
	return 0, fmt.Errorf("no 4-rank entry in %s", path)
}

// validate re-reads the written record with strict field checking and
// enforces the acceptance gates `make check` relies on.
func validate(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var rec result
	if err := dec.Decode(&rec); err != nil {
		return err
	}
	switch {
	case rec.Name == "" || rec.Config == "" || rec.Timestamp == "":
		return fmt.Errorf("missing identification fields")
	case rec.Steps < 1:
		return fmt.Errorf("non-positive steps")
	case len(rec.Results) < 5:
		return fmt.Errorf("want rank counts 1, 2, 4, 8, 16; got %d entries", len(rec.Results))
	case rec.OcnHaloAllocsPerExchange != 0:
		return fmt.Errorf("steady-state tripolar exchange allocates (%v allocs/op)", rec.OcnHaloAllocsPerExchange)
	}
	byRanks := map[int]rankResult{}
	for _, rr := range rec.Results {
		if !(rr.ReplicatedStepsPerSec > 0) || !(rr.DecomposedStepsPerSec > 0) {
			return fmt.Errorf("ranks=%d: non-positive steps/sec", rr.Ranks)
		}
		if rr.Ranks > 1 && rr.OcnHaloMsgs == 0 {
			return fmt.Errorf("ranks=%d: decomposed run exchanged no ocean halo messages", rr.Ranks)
		}
		byRanks[rr.Ranks] = rr
	}
	for _, want := range []int{1, 2, 4, 8, 16} {
		if _, ok := byRanks[want]; !ok {
			return fmt.Errorf("missing %d-rank entry", want)
		}
	}
	// Gates 1 and 2 compare timing ratios with single-digit-percent
	// margins, so they only hold statistically over a long enough
	// measurement window; short smoke runs check schema and the
	// structural gates only.
	if rec.Steps >= 30 {
		// Gate 1: the coupled decomposition at 4 ranks beats the
		// atmosphere-only decomposition BENCH_3 recorded there.
		if byRanks[4].Speedup <= rec.Bench3Speedup4 {
			return fmt.Errorf("4-rank speedup %.3f does not beat BENCH_3's %.3f",
				byRanks[4].Speedup, rec.Bench3Speedup4)
		}
		// Gate 2: the speedup keeps improving from 4 to 8 ranks.
		if byRanks[8].Speedup <= byRanks[4].Speedup {
			return fmt.Errorf("speedup not monotone: %.3f at 8 ranks vs %.3f at 4",
				byRanks[8].Speedup, byRanks[4].Speedup)
		}
	}
	// Gate 3: decomposed strictly faster than replicated at 8 and 16 ranks.
	for _, ranks := range []int{8, 16} {
		rr := byRanks[ranks]
		if rr.DecomposedStepsPerSec <= rr.ReplicatedStepsPerSec {
			return fmt.Errorf("ranks=%d: decomposed %.2f steps/s not faster than replicated %.2f",
				ranks, rr.DecomposedStepsPerSec, rr.ReplicatedStepsPerSec)
		}
	}
	return nil
}
