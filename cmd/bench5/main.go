// Command bench5 measures what the ensemble's work-stealing scheduler buys
// over static member-to-group partitioning when part of the pool straggles:
// it runs the same N-member ensemble twice — once static, once stealing —
// with one rank group slowed by a repeat-stall injected at the ens.dispatch
// fault site, and reports members/hour for both. It writes BENCH_5.json next
// to the other benchmark records and validates its own output before
// exiting, including the acceptance gates: work stealing must complete the
// ensemble at ≥ 1.2x the static throughput under the injected stalls, every
// member must complete under both schedulers, at least one member must
// actually be stolen, and the member dispatch path must not allocate in
// steady state.
//
//	bench5 [-config 25v10] [-members 6] [-groups 2] [-hours 0.5] [-stall 800ms] [-out BENCH_5.json]
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

	"repro/internal/ensemble"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/typhoon"
)

// stealGateFloor is the acceptance gate: members/hour under work stealing
// over static partitioning with one slowed group.
const stealGateFloor = 1.2

// gateMinStall is the smallest injected stall the throughput gate applies
// at; shorter smoke runs check schema and the structural gates only, because
// the stall no longer dominates member runtime.
const gateMinStall = 400 * time.Millisecond

type result struct {
	Name    string  `json:"name"`
	Config  string  `json:"config"`
	Members int     `json:"members"`
	Groups  int     `json:"groups"`
	Ranks   int     `json:"ranks_per_group"`
	Hours   float64 `json:"hours_per_member"`
	StallMs float64 `json:"injected_stall_ms"`

	StaticWallSec        float64 `json:"static_wall_sec"`
	StealWallSec         float64 `json:"steal_wall_sec"`
	StaticMembersPerHour float64 `json:"static_members_per_hour"`
	StealMembersPerHour  float64 `json:"steal_members_per_hour"`
	Speedup              float64 `json:"speedup"`

	StaticCompleted int `json:"static_completed"`
	StealCompleted  int `json:"steal_completed"`
	Steals          int `json:"steals"`

	// Steady-state allocation audit of the member dispatch path
	// (scheduler next/requeue plus the disarmed ens.dispatch fault hook).
	DispatchAllocsPerOp float64 `json:"dispatch_allocs_per_op"`

	GateSpeedupFloor float64 `json:"gate_speedup_floor"`
	WallSec          float64 `json:"wall_sec"`
	Timestamp        string  `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench5: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	members := flag.Int("members", 6, "ensemble size")
	groups := flag.Int("groups", 2, "rank groups in the pool")
	ranks := flag.Int("ranks", 1, "ranks per group")
	hours := flag.Float64("hours", 0.5, "simulated hours per member")
	stall := flag.Duration("stall", 800*time.Millisecond, "injected dispatch stall on the slow group")
	out := flag.String("out", "BENCH_5.json", "output path")
	flag.Parse()

	wall := time.Now()
	res := result{
		Name:    "ensemble-work-stealing",
		Config:  *label,
		Members: *members,
		Groups:  *groups,
		Ranks:   *ranks,
		Hours:   *hours,
		StallMs: float64(stall.Milliseconds()),

		DispatchAllocsPerOp: measureDispatchAllocs(),
		GateSpeedupFloor:    stealGateFloor,
	}

	run := func(sched string) (wallSec float64, completed, steals int) {
		dir, err := os.MkdirTemp("", "bench5-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg := ensemble.Config{
			Label:   *label,
			Members: *members,
			Groups:  *groups,
			Ranks:   *ranks,
			Hours:   *hours,
			Seed:    1,
			BaseDir: dir,
			Sched:   sched,
			Perturb: typhoon.DefaultPerturbation(),
			// The last group is the straggler: every dispatch it makes waits
			// out the stall first, the way a slow node delays its share of
			// the ensemble.
			GroupFaults: map[int]string{
				*groups - 1: fmt.Sprintf("stall@ens.dispatch:1:delay=%s:repeat", stall),
			},
			Obs: obs.New(0, nil),
		}
		t0 := time.Now()
		rep, err := ensemble.Run(cfg)
		if err != nil {
			log.Fatalf("%s ensemble failed: %v", sched, err)
		}
		return time.Since(t0).Seconds(), rep.Completed, rep.Steals
	}
	res.StaticWallSec, res.StaticCompleted, _ = run(ensemble.SchedStatic)
	res.StealWallSec, res.StealCompleted, res.Steals = run(ensemble.SchedSteal)
	if res.StaticWallSec > 0 {
		res.StaticMembersPerHour = float64(*members) * 3600 / res.StaticWallSec
	}
	if res.StealWallSec > 0 {
		res.StealMembersPerHour = float64(*members) * 3600 / res.StealWallSec
	}
	if res.StaticMembersPerHour > 0 {
		res.Speedup = res.StealMembersPerHour / res.StaticMembersPerHour
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
	fmt.Printf("%s: static %.1f members/h, steal %.1f members/h (%.2fx, %d steals), dispatch %.1f allocs/op -> %s\n",
		res.Name, res.StaticMembersPerHour, res.StealMembersPerHour, res.Speedup, res.Steals,
		res.DispatchAllocsPerOp, *out)
}

// measureDispatchAllocs returns the steady-state heap allocations per member
// dispatch: one scheduler next/requeue hand-off plus the disarmed
// ens.dispatch fault hook — the loop a group supervisor spins while cycling
// a retried member.
func measureDispatchAllocs() float64 {
	fault.Disarm()
	const iters = 5000
	s := ensemble.NewSchedulerForBench(8, 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if f := fault.PointScoped("ens.g00", "ens.dispatch", 0); f != nil {
			log.Fatal("disarmed dispatch hook fired")
		}
		m, _, ok := s.Next(0)
		if !ok {
			log.Fatal("bench queue closed early")
		}
		s.Requeue(m)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
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
	case rec.Members < 2 || rec.Groups < 2:
		return fmt.Errorf("need ≥ 2 members and ≥ 2 groups, got %d and %d", rec.Members, rec.Groups)
	case !(rec.StaticMembersPerHour > 0) || !(rec.StealMembersPerHour > 0):
		return fmt.Errorf("non-positive throughput")
	case rec.StaticCompleted != rec.Members || rec.StealCompleted != rec.Members:
		return fmt.Errorf("lost members: static %d/%d, steal %d/%d",
			rec.StaticCompleted, rec.Members, rec.StealCompleted, rec.Members)
	case rec.Steals < 1:
		return fmt.Errorf("work stealing never stole a member")
	case rec.DispatchAllocsPerOp != 0:
		return fmt.Errorf("member dispatch path allocates (%v allocs/op)", rec.DispatchAllocsPerOp)
	}
	// The throughput gate holds when the injected stall dominates member
	// runtime; sub-threshold smoke runs check schema and structure only.
	if rec.StallMs >= float64(gateMinStall.Milliseconds()) && rec.Speedup < rec.GateSpeedupFloor {
		return fmt.Errorf("work-stealing speedup %.3f under injected stalls below the %.1fx gate",
			rec.Speedup, rec.GateSpeedupFloor)
	}
	return nil
}
