package core

import (
	"testing"

	"repro/internal/grid"
)

// forceTowardGroup builds a master modelling a group of 32 slaves over a
// 512-block domain, each holding 48 streamline piles with a quarter of
// those blocks loaded, and returns it with the needy slave S, the first
// of them, which loads 32 more. S sits at its overload limit NO, so rule
// step 3 probes every pile another slave holds in S's loaded blocks and
// refuses each one: the walk is priced, not the sends.
func forceTowardGroup() (*master, *slaveRec, HybridParams) {
	hp := DefaultHybrid()
	m := &master{}
	for i := 0; i < 32; i++ {
		t := newSlaveRec(i + 1)
		for j := 0; j < 48; j++ {
			b := grid.BlockID((i*7 + j*13) % 512)
			t.perBlock[b] = 1 + j%5
			t.active += t.perBlock[b]
			if j < 12 {
				t.loaded[b] = true
			}
		}
		m.group = append(m.group, t)
	}
	s := m.group[0]
	for j := 0; j < 32; j++ {
		s.loaded[grid.BlockID(j*11%512)] = true
	}
	s.active = hp.NO
	return m, s, hp
}

// TestForceTowardAllocs: rule step 3 runs for every needy slave on every
// status, so once the master's scratch buffer has grown it must walk the
// group without allocating.
func TestForceTowardAllocs(t *testing.T) {
	m, s, hp := forceTowardGroup()
	if m.forceToward(s, hp) {
		t.Fatal("forceToward sent with S at its overload limit")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.forceToward(s, hp) }); allocs != 0 {
		t.Errorf("forceToward allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkHybridForceToward(b *testing.B) {
	m, s, hp := forceTowardGroup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forceToward(s, hp)
	}
}
