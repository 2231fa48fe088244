package sim

import (
	"testing"
)

// TestMassiveProcCount runs 4096 simulated processes — continuation chains
// with interleaved sleeps — to stress the queue's heap layout.
func TestMassiveProcCount(t *testing.T) {
	e := NewEngine(1)
	finished := 0
	for i := 0; i < 4096; i++ {
		d := Time(i%17+1) * Microsecond
		k := 0
		sleeps(e, []Time{d, d, d, d, d}, func() {
			if k++; k == 6 {
				finished++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 4096 {
		t.Fatalf("finished = %d", finished)
	}
	var want Time // the slowest chain: five sleeps of 17µs
	for k := 0; k < 5; k++ {
		want += 17 * Microsecond
	}
	if e.Now() != want {
		t.Fatalf("clock ended at %v, want %v", e.Now(), want)
	}
}

func TestDurationConstants(t *testing.T) {
	if Second != 1 || Millisecond != 1e-3 || Microsecond != 1e-6 || Nanosecond != 1e-9 {
		t.Fatal("duration constants wrong")
	}
}
