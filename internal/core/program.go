package core

import (
	"fmt"
	"strings"

	"pinbcast/internal/bcerr"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/slotmath"
)

// Idle marks an unallocated program slot.
const Idle = pinwheel.Idle

// FileInfo records the per-file parameters a program was built for.
type FileInfo struct {
	Name   string
	M      int // blocks needed to reconstruct
	N      int // dispersal width the server rotates through
	Demand int // block slots guaranteed per latency window (m+r)
}

// Program is a cyclic broadcast program (Definition 1 of §4.1): slot t
// of the infinite broadcast transmits a block of file Slots[t mod Period]
// (or nothing, for Idle). Which block of the file is transmitted follows
// AIDA rotation: the k-th transmission of file i overall carries
// dispersed block k mod Nᵢ, producing the program data cycle of §2.3.
type Program struct {
	Files     []FileInfo
	Period    int
	Slots     []int // file index per slot, or Idle
	Bandwidth int   // blocks per time unit; 0 when latencies were given in slots
	Origin    string

	// idx is the occurrence index every schedule query reads; cycle is
	// the precomputed data-cycle length in slots (overflow-checked at
	// construction, so DataCycle stays a plain accessor).
	idx   *pinwheel.Index
	cycle int
}

// NewProgram assembles a program and precomputes its occurrence index.
func NewProgram(files []FileInfo, slots []int, bandwidth int, origin string) (*Program, error) {
	p := &Program{
		Files:     files,
		Period:    len(slots),
		Slots:     slots,
		Bandwidth: bandwidth,
		Origin:    origin,
	}
	if p.Period == 0 {
		return nil, fmt.Errorf("core: empty program")
	}
	for t, v := range slots {
		if v != Idle && (v < 0 || v >= len(files)) {
			return nil, fmt.Errorf("core: slot %d names unknown file %d", t, v)
		}
	}
	p.idx = pinwheel.NewIndex(slots, len(files))
	for i, f := range files {
		if p.idx.Count(i) == 0 {
			return nil, fmt.Errorf("core: file %q never scheduled", f.Name)
		}
	}
	// Precompute the data cycle (§2.3): the smallest multiple of the
	// period after which every file's AIDA block rotation re-aligns
	// with its slots. File i repeats after N/gcd(c, N) periods, so the
	// cycle is the lcm over files — which adversarial specifications
	// (large coprime dispersal widths) can push past the int range.
	cycle := 1
	for i := range files {
		c, n := p.idx.Count(i), p.Files[i].N
		rep := n / slotmath.GCD(c, n)
		var err error
		if cycle, err = slotmath.LCM(cycle, rep); err != nil {
			return nil, fmt.Errorf("core: data cycle of %d files overflows: %w", len(files), bcerr.ErrBadSpec)
		}
	}
	var err error
	if p.cycle, err = slotmath.Mul(cycle, p.Period); err != nil {
		return nil, fmt.Errorf("core: data cycle %d × period %d overflows: %w", cycle, p.Period, bcerr.ErrBadSpec)
	}
	return p, nil
}

// PerPeriod returns how many slots per period carry file i.
func (p *Program) PerPeriod(i int) int { return p.idx.Count(i) }

// Index returns the program's occurrence index, which answers every
// window, gap and latency query in time linear in the occurrences
// involved. It is shared and read-only.
func (p *Program) Index() *pinwheel.Index { return p.idx }

// FileIndex returns the file-table index of the named file, or -1 when
// the program does not carry it. Layouts may order the file table
// differently from the specification they were given (tiering groups
// files by frequency), so callers holding names should resolve indices
// through this method rather than assuming specification order.
func (p *Program) FileIndex(name string) int {
	for i := range p.Files {
		if p.Files[i].Name == name {
			return i
		}
	}
	return -1
}

// FileAt returns the file index broadcast in slot t of the infinite
// program, or Idle. It sits on the per-slot serve and doze paths.
//
//pinlint:hotpath
func (p *Program) FileAt(t int) int { return p.Slots[t%p.Period] }

// BlockAt returns the file index and dispersed block sequence number
// transmitted in slot t (AIDA rotation), or (Idle, 0) for an idle slot.
//
//pinlint:hotpath
func (p *Program) BlockAt(t int) (file, seq int) {
	f := p.FileAt(t)
	if f == Idle {
		return Idle, 0
	}
	return f, p.idx.Ordinal(f, t) % p.Files[f].N
}

// Occurrences returns the slot offsets of file i within one period.
func (p *Program) Occurrences(i int) []int {
	occ := p.idx.Offsets(i)
	out := make([]int, len(occ))
	for k, t := range occ {
		out[k] = int(t)
	}
	return out
}

// Gaps returns the cyclic distances between consecutive occurrences of
// file i, in occurrence order starting from the first; the last entry
// wraps around the period. Sum of gaps equals the period.
func (p *Program) Gaps(i int) []int {
	occ := p.idx.Offsets(i)
	gaps := make([]int, len(occ))
	for k := range occ {
		gaps[k] = p.idx.At(i, k+1) - int(occ[k])
	}
	return gaps
}

// MaxGap returns δ for file i (Lemma 2): the maximum spacing between
// consecutive blocks of the file in the broadcast.
func (p *Program) MaxGap(i int) int { return p.idx.Span(i, 1) }

// DataCycle returns the length in slots of the program data cycle
// (§2.3): the smallest multiple of the period after which every file's
// block rotation re-aligns with its slots. The value is precomputed
// (overflow-checked) by NewProgram.
func (p *Program) DataCycle() int { return p.cycle }

// LatencyProfile reports the mean and worst-case fault-free retrieval
// latency of file i over every start slot: the time until the file's
// reconstruction threshold of M occurrences has passed (AIDA rotation
// makes consecutive occurrences distinct). The profile is periodic, so
// one period of start slots covers the infinite broadcast.
func (p *Program) LatencyProfile(file int) (mean float64, worst int) {
	need := p.Files[file].M
	return p.idx.MeanWait(file, need), p.idx.Span(file, need)
}

// WeightedMeanLatency returns the access-probability-weighted mean
// retrieval latency over all files — the objective the multi-disk
// layout optimizes (and the pinwheel construction deliberately does
// not). probs must have one entry per file and sum to 1.
func (p *Program) WeightedMeanLatency(probs []float64) float64 {
	total := 0.0
	for i := range p.Files {
		mean, _ := p.LatencyProfile(i)
		total += probs[i] * mean
	}
	return total
}

// VerifyWindows checks that every file receives at least `need`
// occurrences in every cyclic window of `window` slots. It is the
// broadcast-side analogue of pinwheel verification and is used to
// validate constructed programs against their specifications.
func (p *Program) VerifyWindows(file, need, window int) error {
	if start, got, ok := p.idx.Window(file, need, window); !ok {
		return fmt.Errorf("core: file %q gets %d blocks in window at slot %d, needs %d in %d",
			p.Files[file].Name, got, start, need, window)
	}
	return nil
}

// String renders one period of the program like the paper's figures,
// e.g. "A1 A2 B1 A3 B2 A4 B3 A5" (sequence numbers are 1-based).
func (p *Program) String() string {
	parts := make([]string, 0, p.Period)
	for t := 0; t < p.Period; t++ {
		f, seq := p.BlockAt(t)
		if f == Idle {
			parts = append(parts, "⊔")
			continue
		}
		name := p.Files[f].Name
		if name == "" {
			name = fmt.Sprintf("F%d", f)
		}
		parts = append(parts, fmt.Sprintf("%s%d", name, seq+1))
	}
	return strings.Join(parts, " ")
}

// RenderCycle renders the given number of slots of the infinite
// program, exposing the data-cycle rotation of Figure 6.
func (p *Program) RenderCycle(slots int) string {
	parts := make([]string, 0, slots)
	for t := 0; t < slots; t++ {
		f, seq := p.BlockAt(t)
		if f == Idle {
			parts = append(parts, "⊔")
			continue
		}
		name := p.Files[f].Name
		if name == "" {
			name = fmt.Sprintf("F%d", f)
		}
		parts = append(parts, fmt.Sprintf("%s%d'", name, seq+1))
	}
	return strings.Join(parts, " ")
}
