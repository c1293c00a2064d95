package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/pp"
)

// goldenDigest is the CRC-32C of Ps, T, Qv, U and SST after goldenSteps
// coupled 25v10 steps at one rank. It pins the model's arithmetic to the
// bit: a change that alters it changes the numerics, and must say so.
const (
	goldenDigest = 0xefde55fd
	goldenSteps  = 30
)

// stateDigest is the CRC-32C over the little-endian bits of the atmosphere's
// Ps, T, Qv and U and the global SST, in that order.
func stateDigest(e *ESM) uint32 {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var b [8]byte
	for _, f := range [][]float64{e.Atm.Ps, e.Atm.T, e.Atm.Qv, e.Atm.U, e.sstGlobal} {
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

// The end state of a fixed coupled run is frozen to the bit, on the Serial
// space and on a two-worker Host space alike.
func TestGoldenDigest(t *testing.T) {
	for _, sc := range []struct {
		name string
		sp   pp.Space
	}{{"Serial", pp.Serial{}}, {"Host2", pp.NewHost(2)}} {
		t.Run(sc.name, func(t *testing.T) {
			par.Run(1, func(c *par.Comm) {
				cfg, err := ConfigForLabel("25v10")
				if err != nil {
					t.Error(err)
					return
				}
				e, err := NewWithOptions(cfg, c, WithSpace(sc.sp))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < goldenSteps; i++ {
					if !e.Step() {
						t.Errorf("clock exhausted at step %d", i)
						return
					}
				}
				if got := stateDigest(e); got != goldenDigest {
					t.Errorf("digest %#08x after %d steps, want %#08x", got, goldenSteps, goldenDigest)
				}
			})
		})
	}
}
