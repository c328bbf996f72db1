package core

import (
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/poison"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The planner's construct entry points: a DOALL whose exit synchronization
// is left to the *next* collective, and the collectives that close it.
//
// A fused region compiled by a back end's fusion pass executes as
//
//	p.DoAllChunkedOpen(kind, grant, r, chunk)   // spans only, no exit barrier
//	x := <evaluate the reduction operand>
//	out := p.FusedJoin(op, numKind, x, store, section)   // the single closing collective
//
// retiring one barrier episode and one reduce episode per construct
// instance.  FusedJoin folds the per-process contributions in pid
// order (reduce.NumEpisode), so results are bit-identical to the
// unfused PrivateSlots strategy; it is also a full synchronization
// point, preserving the construct's exit guarantee.  A lone DOALL the
// Barrier statement behind it rides is the same shape with JoinSection,
// the exit barrier itself, as the closer.  The closer must directly
// follow the open on every process — it completes the open's site
// bookkeeping.
//
// A closing collective already has the barrier-section position — its
// completing process runs while every other one is suspended — so a
// Barrier statement that directly follows the construct needs no episode
// of its own: its section is handed to the closer (the section parameter
// of JoinSection, FusedJoin, GnumBarrier and GlogBarrier), Stats.Barriers
// counts nothing for it, and a recorder and the fault-injection sites see
// the barrier as if it had run (barrierEnter).

var siteFused = "fused DOALL+reduction"

// loopSlots is how many selfscheduled loops of one force may be in flight
// at once without waiting: every DOALL but the open members of a fused
// region ends in a full synchronization, so only a process that is this
// many members ahead of the slowest one inside a region ever waits.
const loopSlots = 4

// loopSlot is one reusable shared state of a selfscheduled loop.  The
// construct instance seq is served by slot seq % loopSlots: the first
// process to arrive arms the loop and publishes seq as the tag, every
// process claims spans until the loop is exhausted and then counts itself
// in left, and the slot is free for a later instance once left reaches
// np.  Proc.seq restarts with every Run, so a Run starts from cleared
// slots (resetLoops).  The padding keeps two slots — two open members of
// one region, claimed from by different processes — off one cache line.
type loopSlot struct {
	tag  atomic.Uint64 // the instance served; slotBusy while it is armed
	left atomic.Int64  // processes that have drained the instance
	loop sched.Loop
	_    [56]byte
}

const slotBusy = ^uint64(0)

// resetLoops frees every loop slot.  Called while no process runs.
func (f *Force) resetLoops() {
	for i := range f.loops {
		f.loops[i].tag.Store(0)
		f.loops[i].left.Store(int64(f.np))
	}
}

// selfsched runs this process's share of the selfscheduled loop instance
// seq — n ordinals under discipline kind, grant ordinals per claim, with
// poison checked before every claim — through the instance's slot.
func (p *Proc) selfsched(seq uint64, kind sched.Kind, n, grant, chunkSize int, chunk ChunkBody) {
	f := p.f
	s := &f.loops[seq%loopSlots]
	for {
		t := s.tag.Load()
		if t == seq {
			break
		}
		if t != slotBusy && s.left.Load() == int64(f.np) && s.tag.CompareAndSwap(t, slotBusy) {
			// First to arrive at a free slot: arm it for this instance.
			s.left.Store(0)
			s.loop.Arm(kind, n, grant, sched.Config{ChunkSize: chunkSize, LockFactory: f.newLock})
			s.tag.Store(seq)
			break
		}
		// A peer is arming the slot, or it still serves an earlier open
		// member of this fused region that a slower process is inside.
		poison.Wait(f.pc, func() bool {
			t := s.tag.Load()
			return t == seq || (t != slotBusy && s.left.Load() == int64(f.np))
		})
	}
	for {
		f.pc.Check()
		lo, hi, ok := s.loop.Next()
		if !ok {
			s.left.Add(1)
			return
		}
		chunk(lo, hi, 1)
	}
}

// openSpans deals this process its spans of one DOALL and runs them,
// leaving the construct open (site entered, no exit synchronization): the
// part every DOALL entry point shares, and the only code that turns
// (discipline, pid, np, range) into work.  The prescheduled deals are pure
// functions of the process id — one span, no shared state; a selfscheduled
// discipline claims grant ordinals at a time from the instance's loop slot.
func (p *Proc) openSpans(kind sched.Kind, grant int, r sched.Range, chunk ChunkBody) (seq uint64) {
	p.f.pc.Check()
	p.f.stats.Loops.Add(1)
	seq = p.nextSeq()
	n := r.Count()
	p.f.tr.Record(p.id, trace.LoopStart, kind.String(), int64(seq))
	p.enterSite(&siteLoop)
	if tr := p.f.tr; tr != nil {
		// Every grant is recorded as the index values it covers.
		run, name := chunk, kind.String()
		chunk = func(lo, hi, stride int) {
			tr.Add(trace.Event{PID: p.id, Kind: trace.LoopSpan, Name: name, Arg: int64(r.Index(lo)),
				Count: int64((hi - lo + stride - 1) / stride), Step: int64(stride * r.Incr)})
			run(lo, hi, stride)
		}
	}
	switch kind {
	case sched.PreschedCyclic:
		if lo, hi, stride := sched.CyclicSpan(p.id, p.f.np, n); lo < hi {
			chunk(lo, hi, stride)
		}
	case sched.PreschedBlock:
		if lo, hi := sched.BlockSpan(p.id, p.f.np, n); lo < hi {
			chunk(lo, hi, 1)
		}
	default:
		p.selfsched(seq, kind, n, grant, p.f.chunk, chunk)
	}
	return seq
}

// DoAllChunkedOpen runs the spans of a chunk-granular DOALL exactly
// like DoAllGranted but leaves the construct OPEN: no exit barrier is
// executed, and the watchdog site stays entered.  The caller must
// close the construct with JoinSection or FusedJoin on every process.
func (p *Proc) DoAllChunkedOpen(kind sched.Kind, grant int, r sched.Range, chunk ChunkBody) {
	seq := p.openSpans(kind, grant, r, chunk)
	p.f.tr.Record(p.id, trace.LoopEnd, kind.String(), int64(seq))
}

// JoinSection closes an open DOALL with the paper's exit synchronization,
// run as the episode of the Barrier statement that rides it: section runs
// once, in the last process to arrive, while the others are suspended.
func (p *Proc) JoinSection(section func()) {
	p.f.pc.Check()
	p.barrierSync(section)
}

// FusedJoin closes a fused construct: every process contributes one
// bit-encoded value (reduce.NumInt carries an int64, reduce.NumReal a
// float64 via math.Float64bits), all receive the pid-order fold under
// op, and none proceeds before the fold is complete — the DOALL's exit
// guarantee and the reduction, one collective.  The completing process,
// alone and before anyone is released, hands the fold to store (non-nil
// when the reduction lands in a variable that must be written once, or
// before the section reads it) and then runs section, the section of a
// Barrier statement riding the join (nil: none does).  The force's two
// reusable episodes alternate, so the steady state allocates nothing.
func (p *Proc) FusedJoin(op reduce.Op, k reduce.NumKind, x uint64, store func(fold uint64), section func()) uint64 {
	f := p.f
	f.pc.Check()
	f.stats.Reductions.Add(1)
	faultinject.Fire(faultinject.FusedJoin, p.id, f.pc)
	ep := f.fusedEps[p.fuse&1]
	p.fuse++
	complete := store
	if section != nil {
		run := p.barrierEnter(section)
		complete = func(fold uint64) {
			if store != nil {
				store(fold)
			}
			run()
		}
	}
	p.enterSite(&siteFused)
	out := ep.Do(p.id, op, k, x, complete)
	p.leaveSite()
	if section != nil {
		p.barrierLeave()
	}
	return out
}
