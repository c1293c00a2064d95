// Command ensemble runs an N-member perturbed Doksuri ensemble over a shared
// pool of rank groups: initial-condition and physics-parameter perturbations,
// work-stealing (or static) scheduling, per-member resilient supervision with
// retry and quarantine, and graceful degradation under a quorum.
//
//	ensemble -members 4 -groups 2 -quorum 3 \
//	  -member-faults '1=nan@esm.step:1:repeat' -expect-completed 3 -expect-quarantined 1
//
// Exits nonzero when the quorum is missed or when -expect-completed /
// -expect-quarantined are set (≥ 0) and the report disagrees — the form
// `make check` uses as its degraded-completion lap.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/typhoon"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ensemble: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	members := flag.Int("members", 4, "ensemble size (member 0 is the control)")
	groups := flag.Int("groups", 2, "rank groups in the pool")
	groupRanks := flag.Int("group-ranks", 1, "ranks per group (each member world's size)")
	hours := flag.Float64("hours", 1, "simulated hours per member")
	quorum := flag.Int("quorum", 0, "members that must complete (0 = all)")
	attempts := flag.Int("attempts", 3, "scheduler attempts per member before quarantine")
	retries := flag.Int("retries", 3, "in-place rollback retries within one attempt")
	ckEvery := flag.Int("checkpoint-every", 4, "coupling steps between member checkpoints")
	backoff := flag.Duration("backoff", 2*time.Millisecond, "rollback backoff base")
	deadline := flag.Duration("deadline", 0, "wall-clock fence per attempt (0 = off)")
	sched := flag.String("sched", ensemble.SchedSteal, "scheduler: steal or static")
	seed := flag.Int64("seed", 1, "master seed for perturbations and jitter")
	posDeg := flag.Float64("perturb-pos", 0.5, "vortex position perturbation half-width, degrees")
	dpsFrac := flag.Float64("perturb-dps", 0.15, "pressure-deficit perturbation half-width, fraction")
	radFrac := flag.Float64("perturb-radius", 0.10, "vortex radius perturbation half-width, fraction")
	physFrac := flag.Float64("phys-frac", 0.05, "atmos Kh/KhMomentum perturbation half-width, fraction")
	memberFaults := flag.String("member-faults", "", "per-member fault plans, 'idx=spec|idx=spec'")
	dir := flag.String("dir", "", "restart base directory (default: a temp dir)")
	expectCompleted := flag.Int("expect-completed", -1, "fail unless exactly this many members completed")
	expectQuarantined := flag.Int("expect-quarantined", -1, "fail unless exactly this many members quarantined")
	flag.Parse()

	baseDir := *dir
	if baseDir == "" {
		tmp, err := os.MkdirTemp("", "ensemble-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		baseDir = tmp
	}
	faults, err := parseMemberFaults(*memberFaults)
	if err != nil {
		log.Fatal(err)
	}

	cfg := ensemble.Config{
		Label:           *label,
		Members:         *members,
		Groups:          *groups,
		Ranks:           *groupRanks,
		Hours:           *hours,
		Quorum:          *quorum,
		MaxAttempts:     *attempts,
		Retries:         *retries,
		CheckpointEvery: *ckEvery,
		Backoff:         *backoff,
		Deadline:        *deadline,
		Seed:            *seed,
		BaseDir:         baseDir,
		Sched:           *sched,
		Perturb:         typhoon.Perturbation{PosDeg: *posDeg, DeltaPsFrac: *dpsFrac, RadiusFrac: *radFrac},
		PhysFrac:        *physFrac,
		MemberFaults:    faults,
		Obs:             obs.New(0, nil),
	}
	rep, err := ensemble.Run(cfg)
	if rep != nil {
		fmt.Print(rep)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *expectCompleted >= 0 && rep.Completed != *expectCompleted {
		log.Fatalf("expected %d completed members, got %d", *expectCompleted, rep.Completed)
	}
	if *expectQuarantined >= 0 && rep.Quarantined != *expectQuarantined {
		log.Fatalf("expected %d quarantined members, got %d", *expectQuarantined, rep.Quarantined)
	}
}

// parseMemberFaults decodes 'idx=spec|idx=spec'. Only the first '=' splits —
// the spec grammar itself uses '=' (rank=R, delay=D).
func parseMemberFaults(s string) (map[int]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]string)
	for _, part := range strings.Split(s, "|") {
		idxStr, spec, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("member fault %q: want idx=spec", part)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			return nil, fmt.Errorf("member fault %q: bad index: %v", part, err)
		}
		out[idx] = spec
	}
	return out, nil
}
