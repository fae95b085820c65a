package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Linux's CPU-time clock IDs. Both read the scheduler's runtime
// accounting to the nanosecond.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id int) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}
