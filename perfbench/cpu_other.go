//go:build !linux

package main

import (
	"errors"
	"time"
)

const (
	clockProcessCPU = iota
	clockThreadCPU
)

func cpuClock(int) (time.Duration, error) {
	return 0, errors.New("the benchmark's CPU clocks need Linux")
}
