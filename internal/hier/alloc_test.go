package hier

import (
	"testing"
)

// TestLinkedTickZeroAlloc: once warm, a 16-rack linked row's lock-step
// tick — transport faults, grant delivery, sixteen physics and control
// ticks, heartbeats, the coordinator's grants and the feeder accounting —
// allocates nothing when no observability plane or sink is attached.
func TestLinkedTickZeroAlloc(t *testing.T) {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 16}}
	a, err := Allocate(c)
	if err != nil {
		t.Fatal(err)
	}
	l, err := newRowLoop(c, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	tick := func() {
		if _, err := l.advance(1); err != nil {
			t.Fatal(err)
		}
	}
	for range 300 {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("warm lock-step tick allocates %.2f times, want 0", allocs)
	}
}
