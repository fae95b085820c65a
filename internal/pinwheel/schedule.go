package pinwheel

import (
	"fmt"
	"strings"
)

// Idle marks a slot in which the resource is left unallocated,
// rendered as ⊔ in the paper's examples.
const Idle = -1

// Schedule is a cyclic schedule: slot t of the infinite schedule is
// Slots[t mod Period]. Each entry is a task index into the System the
// schedule was built for, or Idle.
type Schedule struct {
	Period int
	Slots  []int
	// Origin records which scheduler produced the schedule, for
	// diagnostics and experiment tables.
	Origin string
}

// NewSchedule wraps a slot assignment in a Schedule.
func NewSchedule(slots []int, origin string) *Schedule {
	return &Schedule{Period: len(slots), Slots: slots, Origin: origin}
}

// At returns the task index scheduled in slot t ≥ 0 of the infinite
// schedule, or Idle.
func (s *Schedule) At(t int) int {
	if t < 0 {
		panic("pinwheel: negative slot index")
	}
	return s.Slots[t%s.Period]
}

// Grants returns the slot offsets within one period at which task i is
// scheduled, in increasing order.
func (s *Schedule) Grants(i int) []int {
	var g []int
	for t, v := range s.Slots {
		if v == i {
			g = append(g, t)
		}
	}
	return g
}

// GrantCount returns how many slots per period are allocated to task i.
func (s *Schedule) GrantCount(i int) int {
	n := 0
	for _, v := range s.Slots {
		if v == i {
			n++
		}
	}
	return n
}

// Utilization returns the fraction of non-idle slots per period.
func (s *Schedule) Utilization() float64 {
	busy := 0
	for _, v := range s.Slots {
		if v != Idle {
			busy++
		}
	}
	return float64(busy) / float64(s.Period)
}

// String renders one period like the paper's examples:
// "1, 2, 1, ⊔, 2, …". Task indices are printed 1-based to match the
// paper's notation.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Slots))
	for i, v := range s.Slots {
		if v == Idle {
			parts[i] = "⊔"
		} else {
			parts[i] = fmt.Sprintf("%d", v+1)
		}
	}
	return strings.Join(parts, ", ")
}

// Verify checks that the cyclic schedule satisfies every task of the
// system: each task i must appear in at least sys[i].A slots of every
// window of sys[i].B consecutive slots of the infinite schedule, which
// holds exactly when Span(i, A) ≤ B on the occurrence index (O(P) time
// and memory). It also checks that no slot index is out of range.
func (s *Schedule) Verify(sys System) error {
	if s.Period < 1 || len(s.Slots) != s.Period {
		return fmt.Errorf("pinwheel: malformed schedule (period %d, %d slots)", s.Period, len(s.Slots))
	}
	for t, v := range s.Slots {
		if v != Idle && (v < 0 || v >= len(sys)) {
			return fmt.Errorf("pinwheel: slot %d assigns unknown task %d", t, v)
		}
	}
	x := NewIndex(s.Slots, len(sys))
	for i, task := range sys {
		if start, got, ok := x.Window(i, task.A, task.B); !ok {
			return fmt.Errorf(
				"pinwheel: task %d %s gets %d grants in window starting at slot %d, needs %d",
				i, task, got, start, task.A)
		}
	}
	return nil
}

// MaxGap returns, for task i, the maximum distance between consecutive
// grants in the infinite schedule (cyclically). For a file on a
// broadcast disk this is δ of Lemma 2: the worst-case wait for the next
// block of the file. Returns 0 if the task is never scheduled.
func (s *Schedule) MaxGap(i int) int { return NewIndex(s.Slots, i+1).Span(i, 1) }
