// Command bench6 measures what group-scaled wire compression bought: the
// coupled steps/sec and wire bytes/step of the gs32 wire format against the
// exact f64 baseline at 2, 4, 8, and 16 ranks, with the nearest-neighbour
// remap so every compressible path — both halo exchanges and the coupler
// rearrangers — is live. Wire volume comes from rank 0's cpl.halo.bytes
// (atm + ocn components) and coupler.rearrange.bytes counter deltas over the
// final lap, the deterministic steady-state traffic of `steps` couplings. It
// writes the result as BENCH_6.json and validates its own output before
// exiting, including the acceptance gates: gs32 must cut the wire bytes by
// at least 1.6x at 8 ranks, and must not regress steps/sec at 2 ranks beyond
// scheduler noise.
//
//	bench6 [-config 25v10] [-steps 45] [-out BENCH_6.json]
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
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
)

// regressionTolerance is the allowed steps/sec noise band for the 2-rank
// no-regression gate: gs32 must hold at least this fraction of the f64
// throughput. The encode/decode work is small next to the component kernels,
// so any real regression shows up far below this line.
const regressionTolerance = 0.9

// wireRun is one wire format's measurement at one rank count.
type wireRun struct {
	StepsPerSec float64 `json:"steps_per_sec"`
	SYPD        float64 `json:"sypd"`

	// Per-lap wire traffic (rank 0's counters over the final lap).
	HaloAtmBytes   int64 `json:"halo_atm_bytes"`
	HaloOcnBytes   int64 `json:"halo_ocn_bytes"`
	RearrangeBytes int64 `json:"rearrange_bytes"`
	WireBytes      int64 `json:"wire_bytes"`     // total on-the-wire bytes
	WireRawBytes   int64 `json:"wire_raw_bytes"` // same traffic uncompressed

	// Cumulative raw/wire ratio the model publishes (1.0 under f64, where
	// the gauge stays unset and is reported as 0).
	WireRatio float64 `json:"wire_ratio"`
}

// rankResult is one rank count's f64-vs-gs32 comparison.
type rankResult struct {
	Ranks int     `json:"ranks"`
	F64   wireRun `json:"f64"`
	GS32  wireRun `json:"gs32"`

	// BytesReduction is f64 total wire bytes over gs32's — the compression
	// the wire actually saw, across every path including the exempt
	// conservative router (absent here: remap is nn).
	BytesReduction float64 `json:"bytes_reduction"`
	// SpeedRatio is gs32 steps/sec over f64's.
	SpeedRatio float64 `json:"speed_ratio"`
}

// result is the benchmark record `make check` consumes.
type result struct {
	Name    string `json:"name"`
	Config  string `json:"config"`
	Steps   int    `json:"steps"`
	Backend string `json:"backend"`
	Remap   string `json:"remap"`

	Results []rankResult `json:"results"`

	WallSec   float64 `json:"wall_sec"`
	Timestamp string  `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench6: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	steps := flag.Int("steps", 45, "coupling steps to time per wire format")
	out := flag.String("out", "BENCH_6.json", "output path")
	flag.Parse()

	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	sp := pp.Serial{}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)

	wall := time.Now()
	res := result{
		Name:    "wire-compression",
		Config:  cfg.Label,
		Steps:   *steps,
		Backend: sp.Name(),
		Remap:   core.RemapNN.String(),
	}
	for _, ranks := range []int{2, 4, 8, 16} {
		f64 := runWire(cfg, ranks, *steps, par.WireF64, sp, start)
		gs := runWire(cfg, ranks, *steps, par.WireGS32, sp, start)
		rr := rankResult{Ranks: ranks, F64: f64, GS32: gs}
		if gs.WireBytes > 0 {
			rr.BytesReduction = float64(f64.WireBytes) / float64(gs.WireBytes)
		}
		if f64.StepsPerSec > 0 {
			rr.SpeedRatio = gs.StepsPerSec / f64.StepsPerSec
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
		fmt.Printf("%s ranks=%d: f64 %.2f steps/s / %d wire B, gs32 %.2f steps/s / %d wire B -> %.2fx smaller, %.2fx speed\n",
			res.Name, rr.Ranks, rr.F64.StepsPerSec, rr.F64.WireBytes,
			rr.GS32.StepsPerSec, rr.GS32.WireBytes, rr.BytesReduction, rr.SpeedRatio)
	}
	fmt.Printf("wrote %s\n", *out)
}

// runWire times `steps` coupling steps of a fresh fully-decomposed model
// under the given wire format, running three laps over the same model and
// keeping the fastest — the first lap doubles as warm-up for the one-time
// pack-buffer and encoding growth, and best-of-N damps scheduler noise on an
// oversubscribed host. The traffic counters are read as deltas over the last
// lap, the deterministic steady-state volume of `steps` couplings.
func runWire(cfg core.Config, ranks, steps int, wire par.WireFormat, sp pp.Space, start time.Time) wireRun {
	var r wireRun
	par.Run(ranks, func(c *par.Comm) {
		handle := obs.New(c.Rank(), nil)
		e, err := core.NewWithOptions(cfg, c,
			core.WithInterval(start, start.Add(240*time.Hour)),
			core.WithSpace(sp),
			core.WithObserver(handle),
			core.WithRemap(core.RemapNN),
			core.WithWireCompression(wire))
		if err != nil {
			log.Fatal(err)
		}
		reg := handle.Registry()
		counters := func() [5]int64 {
			return [5]int64{
				reg.Counter(obs.Labeled("cpl.halo.bytes", "component", "atm")).Value(),
				reg.Counter(obs.Labeled("cpl.halo.bytes", "component", "ocn")).Value(),
				reg.Counter("coupler.rearrange.bytes").Value(),
				reg.Counter("cpl.wire.bytes").Value(),
				reg.Counter("cpl.wire.raw.bytes").Value(),
			}
		}
		const laps = 3
		var before [5]int64
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
			if sps := float64(steps) / elapsed; sps > r.StepsPerSec {
				r.StepsPerSec, r.SYPD = sps, sypd
			}
		}
		if c.Rank() != 0 {
			return
		}
		after := counters()
		r.HaloAtmBytes = after[0] - before[0]
		r.HaloOcnBytes = after[1] - before[1]
		r.RearrangeBytes = after[2] - before[2]
		r.WireBytes = after[3] - before[3]
		r.WireRawBytes = after[4] - before[4]
		r.WireRatio = reg.Gauge("cpl.wire.ratio").Value()
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
	case len(rec.Results) < 4:
		return fmt.Errorf("want rank counts 2, 4, 8, 16; got %d entries", len(rec.Results))
	}
	byRanks := map[int]rankResult{}
	for _, rr := range rec.Results {
		if !(rr.F64.StepsPerSec > 0) || !(rr.GS32.StepsPerSec > 0) {
			return fmt.Errorf("ranks=%d: non-positive steps/sec", rr.Ranks)
		}
		if rr.F64.WireBytes == 0 || rr.GS32.WireBytes == 0 {
			return fmt.Errorf("ranks=%d: no wire traffic recorded", rr.Ranks)
		}
		// The f64 baseline must account every byte as raw (ratio 1 exact).
		if rr.F64.WireRawBytes != rr.F64.WireBytes {
			return fmt.Errorf("ranks=%d: f64 raw/wire bytes disagree: %d vs %d",
				rr.Ranks, rr.F64.WireRawBytes, rr.F64.WireBytes)
		}
		// gs32 must ship the same raw volume as f64 did on the wire.
		if rr.GS32.WireRawBytes != rr.F64.WireBytes {
			return fmt.Errorf("ranks=%d: gs32 raw bytes %d != f64 wire bytes %d",
				rr.Ranks, rr.GS32.WireRawBytes, rr.F64.WireBytes)
		}
		byRanks[rr.Ranks] = rr
	}
	for _, want := range []int{2, 4, 8, 16} {
		if _, ok := byRanks[want]; !ok {
			return fmt.Errorf("missing %d-rank entry", want)
		}
	}
	// Gate 1: at 8 ranks gs32 cuts the wire volume by at least 1.6x.
	if rr := byRanks[8]; rr.BytesReduction < 1.6 {
		return fmt.Errorf("8-rank wire-byte reduction %.3fx below the 1.6x gate", rr.BytesReduction)
	}
	// Gate 2: no steps/sec regression at 2 ranks beyond scheduler noise.
	// A timing ratio only holds statistically over a long enough window;
	// short smoke runs check schema and the byte gates only.
	if rec.Steps >= 30 {
		if rr := byRanks[2]; rr.SpeedRatio < regressionTolerance {
			return fmt.Errorf("2-rank gs32 runs at %.3fx of f64 throughput, below the %.2f no-regression gate",
				rr.SpeedRatio, regressionTolerance)
		}
	}
	return nil
}
