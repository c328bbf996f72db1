package trace

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if BarrierEnter.String() != "barrier-enter" || ConsumeOp.String() != "consume" {
		t.Error("kind names")
	}
	if Kind(99).String() != "trace.Kind(99)" {
		t.Error("unknown kind")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := New(0) // default limit
	r.Record(1, BarrierEnter, "", 0)
	r.Record(2, CriticalEnter, "L", 7)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Error("Seq not record order")
	}
	if evs[1].PID != 2 || evs[1].Name != "L" || evs[1].Arg != 7 {
		t.Errorf("event %+v", evs[1])
	}
	if !strings.Contains(evs[1].String(), "critical-enter L(7)") {
		t.Errorf("String() = %q", evs[1].String())
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Dropped() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestRecorderNilIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, BarrierEnter, "", 0) // must not panic
	r.Add(Event{Kind: LoopSpan, Count: 1, Step: 1})
}

func TestRecorderLimit(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Record(0, PcaseBlock, "", int64(i))
	}
	if len(r.Events()) != 2 {
		t.Errorf("kept %d events, want 2", len(r.Events()))
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", r.Dropped())
	}
}

func TestFilter(t *testing.T) {
	r := New(0)
	r.Record(0, BarrierEnter, "", 0)
	r.Add(Event{PID: 0, Kind: LoopSpan, Arg: 1, Count: 2, Step: 3})
	r.Add(Event{PID: 1, Kind: LoopSpan, Arg: 2, Count: 1, Step: 1})
	got := Filter(r.Events(), LoopSpan)
	if len(got) != 2 {
		t.Fatalf("filter = %d events", len(got))
	}
	if e := got[0]; e.Seq != 1 || e.Arg != 1 || e.Count != 2 || e.Step != 3 {
		t.Errorf("Add stored %+v, want Seq 1 and the span (1, 2, 3)", e)
	}
}

// mk builds an event list from (pid, kind, name) triples.
func mk(entries ...Event) []Event {
	for i := range entries {
		entries[i].Seq = i
	}
	return entries
}

func TestCheckCriticalExclusion(t *testing.T) {
	good := mk(
		Event{PID: 0, Kind: CriticalEnter, Name: "a"},
		Event{PID: 0, Kind: CriticalLeave, Name: "a"},
		Event{PID: 1, Kind: CriticalEnter, Name: "a"},
		Event{PID: 2, Kind: CriticalEnter, Name: "b"}, // distinct name ok
		Event{PID: 2, Kind: CriticalLeave, Name: "b"},
		Event{PID: 1, Kind: CriticalLeave, Name: "a"},
	)
	if err := CheckCriticalExclusion(good, ""); err != nil {
		t.Errorf("good log rejected: %v", err)
	}
	overlap := mk(
		Event{PID: 0, Kind: CriticalEnter, Name: "a"},
		Event{PID: 1, Kind: CriticalEnter, Name: "a"},
	)
	if err := CheckCriticalExclusion(overlap, ""); err == nil {
		t.Error("overlapping holders accepted")
	}
	wrongLeaver := mk(
		Event{PID: 0, Kind: CriticalEnter, Name: "a"},
		Event{PID: 1, Kind: CriticalLeave, Name: "a"},
	)
	if err := CheckCriticalExclusion(wrongLeaver, ""); err == nil {
		t.Error("foreign leave accepted")
	}
	unreleased := mk(Event{PID: 0, Kind: CriticalEnter, Name: "a"})
	if err := CheckCriticalExclusion(unreleased, ""); err == nil {
		t.Error("unreleased section accepted")
	}
	// Name filtering ignores other sections.
	if err := CheckCriticalExclusion(overlap, "other"); err != nil {
		t.Error("name filter did not skip unrelated sections")
	}
}

func TestCheckBarrierEpisodesGood(t *testing.T) {
	log := mk(
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 1, Kind: BarrierEnter},
		Event{PID: 1, Kind: BarrierLeave},
		// p0's leave is logged late, after p1 re-enters: legal.
		Event{PID: 1, Kind: BarrierEnter},
		Event{PID: 0, Kind: BarrierLeave},
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 0, Kind: BarrierLeave},
		Event{PID: 1, Kind: BarrierLeave},
	)
	if err := CheckBarrierEpisodes(log, 2); err != nil {
		t.Errorf("legal lagged log rejected: %v", err)
	}
}

func TestCheckBarrierEpisodesSection(t *testing.T) {
	good := mk(
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 1, Kind: BarrierEnter},
		Event{PID: 1, Kind: SectionStart},
		Event{PID: 1, Kind: SectionEnd},
		Event{PID: 0, Kind: BarrierLeave},
		Event{PID: 1, Kind: BarrierLeave},
	)
	if err := CheckBarrierEpisodes(good, 2); err != nil {
		t.Errorf("good section log rejected: %v", err)
	}
	early := mk(
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 0, Kind: SectionStart}, // only 1 of 2 inside
	)
	if err := CheckBarrierEpisodes(early, 2); err == nil {
		t.Error("early section accepted")
	}
	during := mk(
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 1, Kind: BarrierEnter},
		Event{PID: 1, Kind: SectionStart},
		Event{PID: 0, Kind: BarrierLeave}, // escape during section
	)
	if err := CheckBarrierEpisodes(during, 2); err == nil {
		t.Error("leave during section accepted")
	}
}

func TestCheckBarrierEpisodesBad(t *testing.T) {
	doubleEnter := mk(
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 0, Kind: BarrierEnter},
	)
	if err := CheckBarrierEpisodes(doubleEnter, 2); err == nil {
		t.Error("double enter accepted")
	}
	strayLeave := mk(Event{PID: 0, Kind: BarrierLeave})
	if err := CheckBarrierEpisodes(strayLeave, 2); err == nil {
		t.Error("stray leave accepted")
	}
	tooMany := mk(
		Event{PID: 0, Kind: BarrierEnter},
		Event{PID: 1, Kind: BarrierEnter},
		Event{PID: 2, Kind: BarrierEnter},
	)
	if err := CheckBarrierEpisodes(tooMany, 2); err == nil {
		t.Error("np+1 inside accepted")
	}
	hanging := mk(Event{PID: 0, Kind: BarrierEnter})
	if err := CheckBarrierEpisodes(hanging, 2); err == nil {
		t.Error("mid-episode end accepted")
	}
}

func TestCheckLoopCoverage(t *testing.T) {
	// A strided span (1, 3), a one-index grant (2) and a descending dense
	// span (5, 4), beside an event of another kind.
	log := mk(
		Event{PID: 0, Kind: LoopSpan, Arg: 1, Count: 2, Step: 2},
		Event{PID: 1, Kind: LoopSpan, Arg: 2, Count: 1, Step: 2},
		Event{PID: 1, Kind: LoopStart, Arg: 7},
		Event{PID: 0, Kind: LoopSpan, Arg: 5, Count: 2, Step: -1},
	)
	if err := CheckLoopCoverage(log, []int64{1, 2, 3, 4, 5}); err != nil {
		t.Errorf("full coverage rejected: %v", err)
	}
	if err := CheckLoopCoverage(log, []int64{1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("missing index accepted")
	}
	dup := append(log, Event{PID: 1, Kind: LoopSpan, Arg: 0, Count: 2, Step: 1})
	if err := CheckLoopCoverage(dup, []int64{0, 1, 2, 3, 4, 5}); err == nil {
		t.Error("duplicate index accepted")
	}
	extra := append(log, Event{PID: 1, Kind: LoopSpan, Arg: 9, Count: 1, Step: 1})
	if err := CheckLoopCoverage(extra, []int64{1, 2, 3, 4, 5}); err == nil {
		t.Error("extra index accepted")
	}
}
