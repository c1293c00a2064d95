// Command ap3esm runs the coupled model at one of the Table 1
// configurations (scale-mapped to runnable grids) and reports diagnostics
// and the measured SYPD.
//
//	ap3esm -config 25v10 -days 1 -ranks 2 -backend Host -mixed
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/precision"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ap3esm: ")
	label := flag.String("config", "25v10", "coupled configuration label (1v1, 3v2, 6v3, 10v5, 25v10)")
	days := flag.Float64("days", 1, "simulated days to run")
	ranks := flag.Int("ranks", 1, "process count (both the atmosphere/land and ocean/ice domains decompose over it)")
	backend := flag.String("backend", "Serial", "execution space: Serial, Host, CPE")
	mixed := flag.Bool("mixed", false, "run the dynamical cores in FP64/FP32 group-scaled mixed precision")
	obsSpec := flag.String("obs", "off", "observability sink: off, mem, jsonl:PATH, prom:ADDR")
	faults := flag.String("faults", "", "fault plan, e.g. 'io-error@pario.write:2;nan@esm.step:21' (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault plan's RNG (bit/tear placement)")
	ckEvery := flag.Int("checkpoint-every", 0, "checkpoint every N coupling steps and auto-recover from faults (0 = off)")
	ckDir := flag.String("restart-dir", "restart", "restart-set directory for -checkpoint-every")
	maxRetries := flag.Int("max-retries", 3, "consecutive failed recoveries before giving up")
	atmDecomp := flag.Bool("atm-decomp", true, "domain-decompose the atmosphere and land across ranks (false = replicated baseline dataflow)")
	ocnDecomp := flag.Bool("ocn-decomp", true, "domain-decompose the ocean and sea ice across ranks (false = replicated baseline dataflow)")
	remapName := flag.String("remap", "nn", "air-sea flux remap: nn (nearest-neighbour) or cons (first-order conservative)")
	audit := flag.Bool("audit", false, "record the per-coupling-interval conservation budget and print the ledger report")
	auditGate := flag.Float64("audit-gate", 0, "fail if the max relative heat/freshwater residual exceeds this (0 = report only; implies -audit)")
	wireName := flag.String("wire", "f64", "halo/rearranger wire format: f64 (exact) or gs32 (group-scaled FP32 compression)")
	kprecName := flag.String("kprec", "f64", "kernel precision: f64 (bit-for-bit) or mixed (float32 vectorized kernels, float64 accumulations)")
	flag.Parse()

	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	remap, err := core.ParseRemap(*remapName)
	if err != nil {
		log.Fatal(err)
	}
	wire, err := par.ParseWireFormat(*wireName)
	if err != nil {
		log.Fatal(err)
	}
	kprec, err := pp.ParsePrec(*kprecName)
	if err != nil {
		log.Fatal(err)
	}
	if *auditGate > 0 {
		*audit = true
	}
	if *mixed {
		cfg.Policy = precision.Mixed
	}
	sp, err := pp.DefaultSpace(*backend)
	if err != nil {
		log.Fatal(err)
	}

	sink, err := obs.OpenSink(*obsSpec)
	if err != nil {
		log.Fatal(err)
	}
	if ps, ok := sink.(*obs.PromSink); ok && ps.Addr() != "" {
		fmt.Printf("serving metrics at http://%s/metrics\n", ps.Addr())
	}

	plan, err := fault.Parse(*faults, *faultSeed)
	if err != nil {
		log.Fatal(err)
	}
	if plan != nil {
		fault.Arm(plan)
		defer fault.Disarm()
		fmt.Printf("armed fault plan: %s\n", plan)
	}

	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	stop := start.Add(time.Duration(*days*24) * time.Hour)

	fmt.Printf("AP3ESM %s (stands for %d km atm / %d km ocn): atm icos level %d, ocean %dx%dx%d, %d ranks, %s backend, %v, %s kernels\n",
		cfg.Label, cfg.PaperAtmKm, cfg.PaperOcnKm, cfg.AtmLevel,
		cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev, *ranks, sp.Name(), cfg.Policy, kprec)

	par.Run(*ranks, func(c *par.Comm) {
		var observer obs.Observer = obs.Nop{}
		var handle *obs.Obs
		if sink != nil {
			handle = obs.New(c.Rank(), sink)
			observer = handle
		}
		if plan != nil && c.Rank() == 0 && handle != nil {
			plan.SetObserver(handle) // fault.injected.* counters on rank 0's stream
		}
		mk := func() (*core.ESM, error) {
			return core.NewWithOptions(cfg, c,
				core.WithInterval(start, stop),
				core.WithSpace(sp),
				core.WithObserver(observer),
				core.WithRemap(remap),
				core.WithAudit(*audit),
				core.WithAtmDecomp(*atmDecomp),
				core.WithOcnDecomp(*ocnDecomp),
				core.WithWireCompression(wire),
				core.WithKernelPrecision(kprec))
		}
		e, err := mk()
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Now()
		daysRun := 0.0
		if *ckEvery > 0 {
			// Resilient path: the supervisor checkpoints every N coupling
			// steps and rolls back on health or checkpoint failures.
			var rep *core.ResilientReport
			e, rep, err = core.RunResilient(mk, core.ResilientConfig{
				Days: *days, CheckpointEvery: *ckEvery, MaxRetries: *maxRetries,
				Dir: *ckDir, NGroups: 1,
			})
			if c.Rank() == 0 {
				for _, ev := range rep.Recoveries {
					fmt.Printf("  recovery: step %d (%s), attempt %d, resumed from step %d\n",
						ev.Step, ev.Reason, ev.Attempt, ev.Resumed)
				}
			}
			if err != nil {
				log.Fatal(err)
			}
			daysRun = e.SimulatedSeconds() / 86400
		} else {
			for e.Step() {
				daysRun = e.SimulatedSeconds() / 86400
				if e.CouplingSteps()%45 == 0 {
					// Every diagnostic reduces across ranks — the atmosphere
					// scans are owned-range only under the decomposition — so
					// every rank computes them; rank 0 prints.
					maxWind := c.Allreduce(e.Atm.MaxWindLocal(), par.OpMax)
					minPs := c.Allreduce(e.Atm.MinPsLocal(), par.OpMin)
					ke := e.Ocn.SurfaceKineticEnergy()
					iceArea := e.Ice.IceArea()
					if c.Rank() == 0 {
						fmt.Printf("  t=%5.2f d  atm max wind %5.1f m/s  min ps %7.0f Pa  ocean KE %.2e  ice area %.3g m2\n",
							daysRun, maxWind, minPs, ke, iceArea)
					}
				}
			}
		}
		if c.Rank() == 0 {
			elapsed := time.Since(wall).Seconds()
			sypd := (e.SimulatedSeconds() / elapsed) * 86400 / (365 * 86400)
			fmt.Printf("completed %.2f simulated days in %.1f s wall -> %.2f SYPD (miniature configuration)\n",
				daysRun, elapsed, sypd)
		}
		if l := e.Budget(); l != nil {
			// The ledger terms are identical on every rank (the audit
			// allreduces all partials, owned-range or replicated): rank 0
			// reports, every rank agrees on the gate verdict.
			s := l.Summary()
			if c.Rank() == 0 {
				fmt.Printf("conservation budget (%s remap):\n%s", remap, l.Report())
			}
			if g := *auditGate; g > 0 && (s.MaxHeatResid > g || s.MaxFWResid > g) {
				log.Fatalf("budget gate: max residual heat %.3e / fw %.3e exceeds %.1e",
					s.MaxHeatResid, s.MaxFWResid, g)
			}
		}
		if sink != nil {
			rows := e.TimingReport() // collective: every rank participates
			if c.Rank() == 0 {
				fmt.Print(core.FormatTiming(rows))
			}
			handle.FlushMetrics()
		}
	})

	if sink != nil {
		if ps, ok := sink.(*obs.PromSink); ok {
			ps.Render(os.Stdout) // final exposition for batch runs
		}
		if err := sink.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
