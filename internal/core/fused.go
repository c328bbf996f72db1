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
// is left to the *next* collective, and the force's one closing collective.
//
// A fused region compiled by a back end's fusion pass executes as
//
//	p.DoAllChunkedOpen(kind, grant, r, chunk)   // spans only, no exit barrier
//	x := <evaluate the reduction operand>
//	out := p.FusedJoin(op, numKind, x, store, section)   // the single closing collective
//
// retiring one barrier episode and one reduce episode per construct
// instance; a standalone reduction statement is the same region with no
// members, a region without a reduction tail closes with FusedClose, and
// the Go API's G* / Reduce operations (reduce.go) contribute through the
// same collective.  It is a full synchronization point, preserving the
// construct's exit guarantee.  A lone DOALL the Barrier statement behind
// it rides is the same shape with JoinSection, the exit barrier itself,
// as the closer.  The closer must directly follow the open on every
// process — it completes the open's site bookkeeping.
//
// The reduction strategy (Variants.Reduce) is decided in Proc.collective and
// nowhere else.  Under reduce.PrivateSlots a process stores its
// contribution in its own padded slot and meets the others at one of the
// force's two alternating reduce.Joins; the last arrival folds the slots
// in pid order, so a REAL fold is bit-identical run to run and tier to
// tier for a fixed np.  Under reduce.Critical it is the paper's idiom over
// the force's own primitives: fold into the force's accumulator under one
// machine lock, close on the force's barrier, whose section publishes the
// fold.  A close that carries no reduction is the plain join either way.
//
// A closing collective already has the barrier-section position — its
// completing process runs while every other one is suspended — so a
// Barrier statement that directly follows the construct needs no episode
// of its own: its section is handed to the closer (the section parameter
// of JoinSection, FusedJoin and FusedClose), Stats.Barriers counts nothing
// for it, and a recorder and the fault-injection sites see the barrier as
// if it had run (barrierEnter).

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
//
// A loop a planner granted whole (n <= grant, grant > 1: its body is
// cost-bounded, and all of it is worth one claim) has a fixed owner,
// process 0, and touches no slot: the others go straight to the exit.
// Dealing it to the first process to arrive would hand a loop repeated
// sweep after sweep to whichever process wins that sweep's race, and its
// arrays would migrate between caches with it.  At the paper's grant of
// one the body is unbounded and the first to arrive starts it.
func (p *Proc) selfsched(seq uint64, kind sched.Kind, n, grant int, chunk ChunkBody) {
	f := p.f
	if n <= grant && grant > 1 {
		if p.id == 0 && n > 0 {
			chunk(0, n, 1)
		}
		return
	}
	s := &f.loops[seq%loopSlots]
	for {
		t := s.tag.Load()
		if t == seq {
			break
		}
		if t != slotBusy && s.left.Load() == int64(f.np) && s.tag.CompareAndSwap(t, slotBusy) {
			// First to arrive at a free slot: arm it for this instance.
			s.left.Store(0)
			s.loop.Arm(kind, n, grant, sched.Config{LockFactory: f.newLock})
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
	p.stats.Loops.Add(1)
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
		p.selfsched(seq, kind, n, grant, chunk)
	}
	return seq
}

// DoAllChunkedOpen runs the spans of a chunk-granular DOALL exactly
// like DoAllGranted but leaves the construct OPEN: no exit barrier is
// executed, and the watchdog site stays entered.  The caller must
// close the construct with JoinSection, FusedJoin or FusedClose on every
// process.
func (p *Proc) DoAllChunkedOpen(kind sched.Kind, grant int, r sched.Range, chunk ChunkBody) {
	seq := p.openSpans(kind, grant, r, chunk)
	p.f.tr.Record(p.id, trace.LoopEnd, kind.String(), int64(seq))
}

// JoinSection closes an open DOALL with the paper's exit synchronization,
// run as the episode of the Barrier statement that rides it: section runs
// once, in the last process to arrive, while the others are suspended.
func (p *Proc) JoinSection(section func()) {
	p.f.pc.Check()
	p.barrierSync(&siteBarrier, section)
}

// FusedJoin closes a construct that carries a reduction — a fused region
// with a reduction tail, or a reduction statement on its own: every
// process contributes one bit-encoded value (reduce.NumInt carries an
// int64 or a LOGICAL 0/1, reduce.NumReal a float64 via math.Float64bits),
// all receive the fold under op, and none proceeds before the fold is
// complete — the DOALL's exit guarantee and the reduction, one collective.
// The completing process, alone and before anyone is released, hands the
// fold to store (non-nil when the reduction lands in a variable that must
// be written once, or before the section reads it) and then runs section,
// the section of a Barrier statement riding the join (nil: none does).
// Under the default strategy the steady state allocates nothing.
func (p *Proc) FusedJoin(op reduce.Op, k reduce.NumKind, x uint64, store func(fold uint64), section func()) uint64 {
	faultinject.Fire(faultinject.FusedJoin, p.id, p.f.pc)
	return p.collective(&use{reduces: true, op: op, kind: k, x: word{bits: x}, store: store, section: section}).bits
}

// FusedClose closes a fused region that carries no reduction: the plain
// join under either strategy, running the section of the Barrier statement
// riding it (nil: none does).
func (p *Proc) FusedClose(section func()) {
	faultinject.Fire(faultinject.FusedJoin, p.id, p.f.pc)
	p.collective(&use{section: section})
}

// word is one contribution to the closing collective, or its fold:
// bit-encoded for the six operators (reduce.CombineNum), boxed for a
// custom combine.
type word struct {
	bits uint64
	box  any
}

// paddedWord keeps one process's contribution on its own cache line.
type paddedWord struct {
	word
	_ [40]byte
}

// closer is one of the force's two alternating closing collectives: the
// rendezvous, one slot per process, and the fold of its last use, which
// stays readable until the next use of the same closer completes — two
// collectives later, after every process has read it.
type closer struct {
	join  *reduce.Join
	slots []paddedWord
	fold  word
}

// initClosers builds the pair, and under reduce.Critical the accumulator's
// lock — the machine's, like every lock of the force.
func (f *Force) initClosers() {
	for i := range f.closers {
		f.closers[i] = closer{join: reduce.NewJoin(f.np, f.pc), slots: make([]paddedWord, f.np)}
	}
	f.acc, f.accSeeded = word{}, false
	if f.variants.Reduce == reduce.Critical {
		f.accLock = f.newLock()
	}
}

// use is what one process brings to one use of the closing collective.
type use struct {
	// reduces says the use folds a reduction: x, under op — bit-encoded
	// as kind says, or boxed and folded by custom under reduce.Custom.
	reduces bool
	op      reduce.Op
	kind    reduce.NumKind
	x       word
	custom  func(a, b any) any
	// What the completing process runs, alone, in this order: store or
	// hook with the fold (the once-only store of a back end's target; the
	// section of a custom reduction), then section, the section of the
	// Barrier statement riding the collective.  Each may be nil.
	store   func(fold uint64)
	hook    func(fold any)
	section func()
}

// combine folds two contributions of the use.
func (u *use) combine(pc *poison.Cell, a, b word) word {
	// Without process identity: which process combines is the strategy's
	// business (the last arrival, the lock holder), not the contributor's.
	faultinject.Fire(faultinject.ReduceCombine, -1, pc)
	if u.op == reduce.Custom {
		return word{box: u.custom(a.box, b.box)}
	}
	return word{bits: reduce.CombineNum(u.op, u.kind, a.bits, b.bits)}
}

// accumulate is the critical strategy's contribution: fold u.x into the
// force's accumulator inside the critical section.  The combine may be
// user code: the lock is released even when it panics, so peers queued on
// it drain instead of wedging on a lock no one will open.
func (f *Force) accumulate(u *use) {
	f.accLock.Lock()
	defer f.accLock.Unlock()
	if f.accSeeded {
		f.acc = u.combine(f.pc, f.acc, u.x)
	} else {
		f.acc, f.accSeeded = u.x, true
	}
}

// publish is what the completing process does alone, before anyone is
// released: record the fold and run what the use handed in.
func (c *closer) publish(fold word, u *use, section func()) {
	c.fold = fold
	if u.store != nil {
		u.store(fold.bits)
	}
	if u.hook != nil {
		u.hook(fold.box)
	}
	if section != nil {
		section()
	}
}

// collective is one use of the force's closing collective by this process:
// every reduction of every tier and of the Go API, and every close of a
// fused region.  Every process returns the fold.  A recorder sees
// ReduceEnter / ReduceLeave around a use that folds a reduction, keyed by
// the use's ordinal.
func (p *Proc) collective(u *use) word {
	f := p.f
	f.pc.Check()
	p.stats.Reductions.Add(1)
	ord := p.fuse
	p.fuse++
	c := &f.closers[ord&1]
	site := &siteReduce
	if p.site.construct.Load() == &siteLoop {
		site = &siteFused // the open members of a region precede it
	}
	if u.reduces {
		if f.tr != nil {
			f.tr.Record(p.id, trace.ReduceEnter, u.op.String(), int64(ord))
		}
		faultinject.Fire(faultinject.ReduceContrib, p.id, f.pc)
	}
	if u.reduces && f.variants.Reduce == reduce.Critical {
		u := *u // the barrier section below keeps it; the slots path stays off the heap
		f.accumulate(&u)
		// The critical strategy's release position is its closing barrier.
		faultinject.Fire(faultinject.ReduceRelease, p.id, f.pc)
		p.barrierSync(site, func() {
			fold := f.acc
			f.acc, f.accSeeded = word{}, false
			c.publish(fold, &u, u.section)
		})
	} else {
		section := u.section
		if section != nil {
			section = p.barrierEnter(section)
		}
		p.enterSite(site)
		if u.reduces {
			c.slots[p.id].word = u.x
		}
		if c.join.Arrive() {
			var fold word
			if u.reduces {
				fold = c.slots[0].word
				for i := 1; i < f.np; i++ {
					fold = u.combine(f.pc, fold, c.slots[i].word)
				}
			}
			c.publish(fold, u, section)
			c.join.Release()
		} else {
			c.join.Wait()
		}
		p.leaveSite()
		if u.section != nil {
			p.barrierLeave()
		}
	}
	if u.reduces && f.tr != nil {
		f.tr.Record(p.id, trace.ReduceLeave, u.op.String(), int64(ord))
	}
	return c.fold
}
