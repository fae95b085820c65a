package main

import (
	"runtime"
	"time"
)

// CPU clocks. On a shared host the wall time of a call stretches with
// whatever else the host runs, while the CPU time the call itself burns
// does not: the kernel leaves out time this process waits for a CPU,
// and, with paravirtual steal-time accounting, time the hypervisor gives
// the machine's CPUs to someone else. The set-up and control-plane
// figures are therefore CPU times; the retrieval time, which needs the
// wall clock, is a median, which a passing stall does not move.

// processCPU returns the CPU time every thread of the process has used.
// Threads running on other CPUs at that instant are counted up to their
// last scheduler tick, so it is exact to a few milliseconds.
func processCPU() time.Duration {
	d, _ := cpuClock(clockProcessCPU)
	return d
}

// threadCPUTime runs f wired to one OS thread and returns the CPU time
// that thread spent in it: f's own work, including any garbage
// collection it assists, but not time spent waiting for a CPU.
func threadCPUTime(f func() error) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, _ := cpuClock(clockThreadCPU)
	err := f()
	end, _ := cpuClock(clockThreadCPU)
	return end - start, err
}

// checkCPUClocks fails where the CPU clocks are unavailable, rather
// than let a run report zeros.
func checkCPUClocks() error {
	if _, err := cpuClock(clockProcessCPU); err != nil {
		return err
	}
	_, err := cpuClock(clockThreadCPU)
	return err
}
