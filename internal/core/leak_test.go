package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/pp"
)

// Stepping the coupled model must leave no goroutine behind: once par.Run
// returns, every rank goroutine and anything the step path started has
// exited. Twelve base steps at 25v10 cover two ocean couplings plus the
// atmosphere and ice couplings in between.
func TestStepLeavesNoGoroutines(t *testing.T) {
	checkStepsLeaveNoGoroutines(t, func() pp.Space { return pp.Serial{} })
}

// The Host space's helpers outlive a launch by their spin window only:
// with both ranks sharing one Host, as the command-line model runs, the
// count returns to baseline once the window has passed.
func TestHostStepLeavesNoGoroutines(t *testing.T) {
	h := pp.NewHost(2)
	checkStepsLeaveNoGoroutines(t, func() pp.Space { return h })
}

func checkStepsLeaveNoGoroutines(t *testing.T, space func() pp.Space) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 12
	base := runtime.NumGoroutine()
	par.Run(2, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(space()))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < steps; i++ {
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
		}
		if _, ocn := e.Timing().Section("ocn"); ocn < 2 {
			t.Errorf("rank %d: %d ocean couplings in %d steps, want ≥ 2", c.Rank(), ocn, steps)
		}
	})
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines after the run, %d before:\n%s", n, base, buf)
	}
}
