//go:build !race

// The race detector makes sync.Pool drop items at random, so the count is
// only meaningful in a normal build.

package atmos

import (
	"testing"

	"repro/internal/pp"
)

// Steady-state stepping must not allocate: the scratch buffers, bound
// sweeps and pooled column scratch built on the first StepModel absorb
// every later one, dycore, tracer and physics steps alike.
func TestStepModelZeroAllocSteadyState(t *testing.T) {
	m, err := New(3, 8, DefaultConfig(), pp.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	m.StepModel()
	allocs := testing.AllocsPerRun(3, m.StepModel)
	if allocs != 0 {
		t.Errorf("%.1f allocs per steady-state StepModel, want 0", allocs)
	}
}
