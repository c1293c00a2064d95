// Command bench8 measures what the single-source mixed-precision kernel
// layer bought: the coupled steps/sec of the float32 kernel instantiations
// (-kprec mixed) against the bit-for-bit float64 baseline at 1 and 8 ranks.
// Both runs go through the identical registered kernels and thin drivers —
// the only difference is the Vec execution-space wrapper selecting the
// float32 bodies — so the ratio isolates the arithmetic-width win. It
// writes the result as BENCH_8.json and validates its own output before
// exiting, including the acceptance gate: mixed must beat f64 steps/sec at
// 8 ranks. A timing ratio only holds statistically over a long enough
// window, so short smoke runs check the schema only.
//
//	bench8 [-config 25v10] [-steps 45] [-out BENCH_8.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pp"
)

// winGate is the 8-rank speed ratio mixed precision must clear: a measured
// win, not a tie. regressionTolerance is the 1-rank noise floor — mixed may
// not be slower than f64 beyond scheduler noise even where the conversion
// overhead is least amortized.
const (
	winGate             = 1.0
	regressionTolerance = 0.9
)

// precRun is one kernel precision's measurement at one rank count.
type precRun struct {
	StepsPerSec float64 `json:"steps_per_sec"`
	SYPD        float64 `json:"sypd"`
}

// rankResult is one rank count's f64-vs-mixed comparison.
type rankResult struct {
	Ranks int     `json:"ranks"`
	F64   precRun `json:"f64"`
	Mixed precRun `json:"mixed"`

	// SpeedRatio is mixed steps/sec over f64's.
	SpeedRatio float64 `json:"speed_ratio"`
}

// result is the benchmark record `make check` consumes.
type result struct {
	Name    string `json:"name"`
	Config  string `json:"config"`
	Steps   int    `json:"steps"`
	Backend string `json:"backend"`

	Results []rankResult `json:"results"`

	WallSec   float64 `json:"wall_sec"`
	Timestamp string  `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench8: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	steps := flag.Int("steps", 45, "coupling steps to time per kernel precision")
	backend := flag.String("backend", "Serial", "execution space: Serial, Host, CPE")
	out := flag.String("out", "BENCH_8.json", "output path")
	flag.Parse()

	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := pp.DefaultSpace(*backend)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

	wall := time.Now()
	res := result{
		Name:    "kernel-precision",
		Config:  cfg.Label,
		Steps:   *steps,
		Backend: sp.Name(),
	}
	for _, ranks := range []int{1, 8} {
		f64 := runPrec(cfg, ranks, *steps, pp.PrecF64, sp, start)
		mx := runPrec(cfg, ranks, *steps, pp.PrecMixed, sp, start)
		rr := rankResult{Ranks: ranks, F64: f64, Mixed: mx}
		if f64.StepsPerSec > 0 {
			rr.SpeedRatio = mx.StepsPerSec / f64.StepsPerSec
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
		fmt.Printf("%s ranks=%d: f64 %.2f steps/s (%.2f SYPD), mixed %.2f steps/s (%.2f SYPD) -> %.2fx speed\n",
			res.Name, rr.Ranks, rr.F64.StepsPerSec, rr.F64.SYPD,
			rr.Mixed.StepsPerSec, rr.Mixed.SYPD, rr.SpeedRatio)
	}
	fmt.Printf("wrote %s\n", *out)
}

// runPrec times `steps` coupling steps of a fresh fully-decomposed model at
// the given kernel precision, running three laps over the same model and
// keeping the fastest — the first lap doubles as warm-up for the one-time
// scratch and geometry-table builds, and best-of-N damps scheduler noise on
// an oversubscribed host.
func runPrec(cfg core.Config, ranks, steps int, kp pp.Prec, sp pp.Space, start time.Time) precRun {
	var r precRun
	par.Run(ranks, func(c *par.Comm) {
		e, err := core.NewWithOptions(cfg, c,
			core.WithInterval(start, start.Add(240*time.Hour)),
			core.WithSpace(sp),
			core.WithKernelPrecision(kp))
		if err != nil {
			log.Fatal(err)
		}
		const laps = 3
		for lap := 0; lap < laps; lap++ {
			t0 := time.Now()
			sypd, err := e.MeasureSYPD(steps)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(t0).Seconds()
			if c.Rank() != 0 || elapsed <= 0 {
				continue
			}
			if sps := float64(steps) / elapsed; sps > r.StepsPerSec {
				r.StepsPerSec, r.SYPD = sps, sypd
			}
		}
	})
	return r
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
	case len(rec.Results) != 2:
		return fmt.Errorf("want rank counts 1 and 8; got %d entries", len(rec.Results))
	}
	byRanks := map[int]rankResult{}
	for _, rr := range rec.Results {
		if !(rr.F64.StepsPerSec > 0) || !(rr.Mixed.StepsPerSec > 0) {
			return fmt.Errorf("ranks=%d: non-positive steps/sec", rr.Ranks)
		}
		byRanks[rr.Ranks] = rr
	}
	for _, want := range []int{1, 8} {
		if _, ok := byRanks[want]; !ok {
			return fmt.Errorf("missing %d-rank entry", want)
		}
	}
	// Timing gates hold only over a long enough window; smoke runs stop at
	// the schema checks above.
	if rec.Steps >= 30 {
		// Gate 1: mixed precision must be a measured win at 8 ranks.
		if rr := byRanks[8]; rr.SpeedRatio <= winGate {
			return fmt.Errorf("8-rank mixed runs at %.3fx of f64 throughput, not above the %.2fx win gate",
				rr.SpeedRatio, winGate)
		}
		// Gate 2: no regression at 1 rank beyond scheduler noise.
		if rr := byRanks[1]; rr.SpeedRatio < regressionTolerance {
			return fmt.Errorf("1-rank mixed runs at %.3fx of f64 throughput, below the %.2f no-regression floor",
				rr.SpeedRatio, regressionTolerance)
		}
	}
	return nil
}
