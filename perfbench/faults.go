package main

import (
	"fmt"
	"math/rand"

	"pinbcast"
)

// spacedFaults is the benchmark's fault budget: it destroys at most one
// slot in any window of gap slots, at seeded pseudo-random positions.
// The time axis is cut into segments of 2·gap slots and each segment
// holds one fault in its first half, so two faults are always more than
// gap slots apart. With gap at least the largest deadline B·Tᵢ, every
// retrieval window sees at most one fault, which is within the rᵢ = 1
// every workload file tolerates: the paper then guarantees that each
// file is rebuilt within B·Tᵢ slots, and a correct program misses no
// deadline.
type spacedFaults struct {
	seed uint64
	gap  int
}

func newSpacedFaults(seed int64, channel, gap int) spacedFaults {
	return spacedFaults{seed: mix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(channel)), gap: gap}
}

func (f spacedFaults) Corrupts(t int) bool {
	if t < 0 {
		return false
	}
	seg := 2 * f.gap
	k := t / seg
	return t-k*seg == int(mix(f.seed^uint64(k))%uint64(f.gap))
}

func (f spacedFaults) Name() string { return fmt.Sprintf("spaced(1 per %d slots)", f.gap) }

// mix is the splitmix64 finaliser, a cheap stateless hash: Corrupts must
// answer for any slot in any order, from several goroutines.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultModel returns the fault model for one receiving channel whose
// largest deadline is maxDeadline slots. The over-budget model of the
// self-test destroys each slot with probability ½, far beyond rᵢ per
// window, so deadlines must be missed.
func faultModel(cfg config, channel, maxDeadline int) pinbcast.FaultModel {
	if cfg.overFault {
		return pinbcast.BernoulliFaultsFrom(0.5, rand.New(rand.NewSource(cfg.seed+int64(channel))))
	}
	return newSpacedFaults(cfg.seed, channel, maxDeadline+1)
}
