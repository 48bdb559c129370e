package main

import (
	"math/bits"
	"runtime"
	"syscall"
	"unsafe"
)

// The vCPUs of a shared host do not run at one speed: a neighbour busy on
// one vCPU's sibling slows that vCPU alone, and a single-threaded sprintd
// run took either 1.8 s or 3.2 s depending on where the scheduler put it.
// So sprintd and the host probe are bound to the same vCPU, the last one
// the benchmark may use; the probe then times the vCPU the runs ran on,
// and the client keeps the others.

// cpuMask is a Linux CPU affinity mask (room for 1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func (m *cpuMask) last() int {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i] != 0 {
			return 64*i + 63 - bits.LeadingZeros64(m[i])
		}
	}
	return -1
}

func affinity(op uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// benchCPU is the vCPU sprintd and the probe share, or -1 when the
// benchmark may use only one and nothing is bound.
func benchCPU() int {
	var m cpuMask
	if affinity(syscall.SYS_SCHED_GETAFFINITY, &m) != nil || m.count() < 2 {
		return -1
	}
	return m.last()
}

// onCPU runs f on an OS thread bound to cpu; a process f starts inherits
// the binding. A cpu of -1 runs f unbound.
func onCPU(cpu int, f func()) error {
	if cpu < 0 {
		f()
		return nil
	}
	runtime.LockOSThread()
	var old cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		runtime.UnlockOSThread()
		return err
	}
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &m); err != nil {
		runtime.UnlockOSThread()
		return err
	}
	f()
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &old); err != nil {
		// The thread stays locked to this goroutine, so the binding
		// does not leak to other goroutines.
		return err
	}
	runtime.UnlockOSThread()
	return nil
}
