package main

import (
	"syscall"
	"testing"
)

func TestCPUMaskLastAndCount(t *testing.T) {
	var m cpuMask
	if m.count() != 0 || m.last() != -1 {
		t.Fatalf("empty mask: count %d last %d", m.count(), m.last())
	}
	m[0] = 0b1011
	m[2] = 1 << 5 // CPU 133
	if m.count() != 4 || m.last() != 133 {
		t.Fatalf("count %d last %d, want 4 and 133", m.count(), m.last())
	}
}

// onCPU binds the calling thread for f alone: inside, the thread may run
// only on the chosen CPU; afterwards it has its old mask back.
func TestOnCPURestoresAffinity(t *testing.T) {
	cpu := benchCPU()
	if cpu < 0 {
		t.Skip("needs at least two usable CPUs")
	}
	var before, inside, after cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &before); err != nil {
		t.Fatal(err)
	}
	err := onCPU(cpu, func() {
		if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &inside); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inside.count() != 1 || inside.last() != cpu {
		t.Errorf("inside onCPU the mask allows %d CPUs up to %d, want only %d", inside.count(), inside.last(), cpu)
	}
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &after); err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("mask after onCPU %v, want %v", after, before)
	}
}
