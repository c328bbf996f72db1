// Package trace records Force construct events — barrier arrivals and
// departures, barrier-section and critical-section boundaries, granted
// loop spans, Pcase blocks, Askfor tasks, async-variable operations — in
// one globally ordered log, and provides checkers for the orderings the
// constructs guarantee.
//
// The runtime (internal/core) emits events when a Recorder is attached
// with core.WithTrace; a nil recorder costs one predictable branch per
// construct edge, and a DOALL is recorded as it is dealt (one LoopSpan per
// granted span), so a recorder never changes what runs.  The checkers turn the paper's semantic sentences ("all
// processes wait for each other", "only one process at a given time is
// allowed to execute within the critical section") into machine-checkable
// predicates used by the validation tests.
package trace

import (
	"fmt"
	"sync"
)

// Kind classifies an event.
type Kind int

// Event kinds, one per construct edge the runtime instruments.
const (
	BarrierEnter Kind = iota
	BarrierLeave
	SectionStart
	SectionEnd
	CriticalEnter
	CriticalLeave
	LoopStart
	LoopSpan
	LoopEnd
	PcaseBlock
	AskforTask
	ProduceOp
	ConsumeOp
	ReduceEnter
	ReduceLeave
)

var kindNames = map[Kind]string{
	BarrierEnter:  "barrier-enter",
	BarrierLeave:  "barrier-leave",
	SectionStart:  "section-start",
	SectionEnd:    "section-end",
	CriticalEnter: "critical-enter",
	CriticalLeave: "critical-leave",
	LoopStart:     "loop-start",
	LoopSpan:      "loop-span",
	LoopEnd:       "loop-end",
	PcaseBlock:    "pcase-block",
	AskforTask:    "askfor-task",
	ProduceOp:     "produce",
	ConsumeOp:     "consume",
	ReduceEnter:   "reduce-enter",
	ReduceLeave:   "reduce-leave",
}

// String returns the kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("trace.Kind(%d)", int(k))
}

// Event is one recorded construct edge.  Seq is the global record order:
// the recorder's lock makes it a legal linearization of the construct
// edges (each edge is recorded while the construct's own synchronization
// covers it).
type Event struct {
	Seq  int
	PID  int
	Kind Kind
	Name string
	Arg  int64
	// Count and Step complete a LoopSpan: one process was granted the Count
	// index values Arg, Arg+Step, ... (flat ordinals for a two-index loop).
	Count, Step int64
}

// String formats the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("#%d p%d %s %s(%d)", e.Seq, e.PID, e.Kind, e.Name, e.Arg)
}

// Recorder collects events up to a fixed capacity; past capacity events
// are dropped and counted, never blocking the program under test.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int
}

// New creates a recorder capped at limit events (limit <= 0 means a
// default of 1<<16).
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Recorder{limit: limit}
}

// Record appends an event; safe for concurrent use.
func (r *Recorder) Record(pid int, k Kind, name string, arg int64) {
	r.Add(Event{PID: pid, Kind: k, Name: name, Arg: arg})
}

// Add appends e, assigning its Seq; safe for concurrent use.
func (r *Recorder) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) >= r.limit {
		r.dropped++
		r.mu.Unlock()
		return
	}
	e.Seq = len(r.events)
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the log in record order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Dropped reports how many events were discarded at capacity.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset clears the log.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// Filter returns the events of one kind, in order.
func Filter(events []Event, k Kind) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// CheckCriticalExclusion verifies that within the named critical section
// (all sections when name is empty), enter/leave events strictly
// alternate per name — i.e. no two processes were ever inside together.
func CheckCriticalExclusion(events []Event, name string) error {
	holder := map[string]int{} // name -> pid currently inside (-1 none)
	for _, e := range events {
		if e.Kind != CriticalEnter && e.Kind != CriticalLeave {
			continue
		}
		if name != "" && e.Name != name {
			continue
		}
		cur, ok := holder[e.Name]
		if !ok {
			cur = -1
		}
		switch e.Kind {
		case CriticalEnter:
			if cur != -1 {
				return fmt.Errorf("trace: %v entered %q while p%d held it", e, e.Name, cur)
			}
			holder[e.Name] = e.PID
		case CriticalLeave:
			if cur != e.PID {
				return fmt.Errorf("trace: %v left %q held by p%d", e, e.Name, cur)
			}
			holder[e.Name] = -1
		}
	}
	for n, cur := range holder {
		if cur != -1 {
			return fmt.Errorf("trace: critical %q never released by p%d", n, cur)
		}
	}
	return nil
}

// CheckBarrierEpisodes verifies the Force barrier contract over the log
// of one barrier used by np processes.  Enter events are recorded before a
// process calls the barrier and Leave events after it returns, so the log
// is slightly looser than the barrier's internal order (a fast process's
// next-episode enter may be logged before a slow process's leave); the
// invariants below are exactly those the recording points guarantee:
//
//   - per process, enters and leaves strictly alternate;
//   - at most np processes are ever inside (enters−leaves ≤ np);
//   - a barrier section starts only when all np are inside, no barrier
//     event of any process intervenes until it ends, and every episode
//     of a section barrier has exactly one section;
//   - the log ends with every process outside.
func CheckBarrierEpisodes(events []Event, np int) error {
	inside := map[int]bool{}
	outstanding := 0
	inSection := false
	entersSinceSection := 0
	sawSection := false
	for _, e := range events {
		switch e.Kind {
		case BarrierEnter, BarrierLeave, SectionStart, SectionEnd:
		default:
			continue
		}
		if inSection && e.Kind != SectionEnd {
			return fmt.Errorf("trace: %v recorded during a barrier section", e)
		}
		switch e.Kind {
		case BarrierEnter:
			if inside[e.PID] {
				return fmt.Errorf("trace: %v entered twice without leaving", e)
			}
			inside[e.PID] = true
			outstanding++
			entersSinceSection++
			if outstanding > np {
				return fmt.Errorf("trace: %v makes %d processes inside an np=%d barrier", e, outstanding, np)
			}
		case BarrierLeave:
			if !inside[e.PID] {
				return fmt.Errorf("trace: %v left without entering", e)
			}
			inside[e.PID] = false
			outstanding--
		case SectionStart:
			if outstanding != np {
				return fmt.Errorf("trace: %v section started with %d/%d inside", e, outstanding, np)
			}
			// Sectionless episodes may run between two section
			// episodes, so enters since the last section must be a
			// whole number of full episodes.
			if sawSection && entersSinceSection%np != 0 {
				return fmt.Errorf("trace: %v section after %d enters (np=%d)", e, entersSinceSection, np)
			}
			inSection = true
			sawSection = true
			entersSinceSection = 0
		case SectionEnd:
			if !inSection {
				return fmt.Errorf("trace: %v section end without start", e)
			}
			inSection = false
		}
	}
	if outstanding != 0 || inSection {
		return fmt.Errorf("trace: log ends with %d processes inside (section=%v)", outstanding, inSection)
	}
	return nil
}

// CheckReduceParticipation verifies the collective contract of the
// global-reduction events: every episode (identified by the event Arg,
// the construct sequence number) has exactly np ReduceEnter and np
// ReduceLeave events, one pair per process, and no process leaves an
// episode it did not enter.
func CheckReduceParticipation(events []Event, np int) error {
	type key struct {
		seq int64
		pid int
	}
	enters := map[key]int{}
	leaves := map[key]int{}
	perEpisode := map[int64]int{}
	for _, e := range events {
		switch e.Kind {
		case ReduceEnter:
			enters[key{e.Arg, e.PID}]++
			perEpisode[e.Arg]++
		case ReduceLeave:
			if enters[key{e.Arg, e.PID}] == 0 {
				return fmt.Errorf("trace: %v left a reduction it never entered", e)
			}
			leaves[key{e.Arg, e.PID}]++
		}
	}
	for k, n := range enters {
		if n != 1 {
			return fmt.Errorf("trace: p%d entered reduction %d %d times", k.pid, k.seq, n)
		}
		if leaves[k] != 1 {
			return fmt.Errorf("trace: p%d left reduction %d %d times", k.pid, k.seq, leaves[k])
		}
	}
	for seq, n := range perEpisode {
		if n != np {
			return fmt.Errorf("trace: reduction %d had %d participants, want %d", seq, n, np)
		}
	}
	return nil
}

// CheckLoopCoverage verifies that the LoopSpan events of one loop
// instance, expanded, cover each expected index exactly once.
func CheckLoopCoverage(events []Event, want []int64) error {
	seen := map[int64]int{}
	for _, e := range Filter(events, LoopSpan) {
		for k := int64(0); k < e.Count; k++ {
			seen[e.Arg+k*e.Step]++
		}
	}
	for _, w := range want {
		switch seen[w] {
		case 1:
		case 0:
			return fmt.Errorf("trace: index %d never executed", w)
		default:
			return fmt.Errorf("trace: index %d executed %d times", w, seen[w])
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("trace: %d distinct indices executed, want %d", len(seen), len(want))
	}
	return nil
}
