package core

import (
	"repro/internal/faultinject"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The fused construct entry points: a chunked DOALL whose exit barrier
// is elided because the *next* collective — either another fused DOALL
// span or a numeric reduction join — provides the synchronization.
//
// A fused region compiled by the interpreter's fusion pass executes as
//
//	p.DoAllChunkedOpen(kind, r, chunk)   // spans only, no exit barrier
//	x := <evaluate the reduction operand>
//	out := p.FusedJoin(op, numKind, x)   // the single closing collective
//
// retiring one barrier episode and one reduce episode per construct
// instance.  FusedJoin folds the per-process contributions in pid
// order (reduce.NumEpisode), so results are bit-identical to the
// unfused PrivateSlots strategy; it is also a full synchronization
// point, preserving the construct's exit guarantee.  The join must
// directly follow the open on every process — it retires the open's
// selfscheduled construct entry and completes its site bookkeeping.

var siteFused = "fused DOALL+reduction"

// openSpans deals this process its spans of one DOALL and runs them,
// leaving the construct open (site entered, no exit synchronization): the
// part DoAllChunked and DoAllChunkedOpen share, and the only code that
// turns (discipline, pid, np, range) into work.  The prescheduled deals
// are pure functions of the process id — one span, no shared state; a
// selfscheduled discipline materializes the instance's sched.Scheduler,
// and entry reports that the caller's closing collective must retire it.
func (p *Proc) openSpans(kind sched.Kind, r sched.Range, chunk ChunkBody) (seq uint64, entry bool) {
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
		return seq, false
	case sched.PreschedBlock:
		if lo, hi := sched.BlockSpan(p.id, p.f.np, n); lo < hi {
			chunk(lo, hi, 1)
		}
		return seq, false
	}
	cfg := sched.Config{ChunkSize: p.f.chunk, LockFactory: p.f.profile.LockFactory()}
	s := p.f.entry(seq, func() any { return sched.New(kind, p.f.np, r, cfg) }).(sched.Scheduler)
	for {
		p.f.pc.Check()
		lo, hi, ok := s.Next(p.id)
		if !ok {
			return seq, true
		}
		chunk(lo, hi, 1)
	}
}

// DoAllChunkedOpen runs the spans of a chunk-granular DOALL exactly
// like DoAllChunked but leaves the construct OPEN: no exit barrier is
// executed, and the watchdog site stays entered.  The caller must
// close the construct with FusedJoin on every process.  Poison is
// checked before every grant, as in DoAllChunked.
func (p *Proc) DoAllChunkedOpen(kind sched.Kind, r sched.Range, chunk ChunkBody) {
	seq, entry := p.openSpans(kind, r, chunk)
	if entry {
		// The scheduler entry is retired by the FusedJoin that closes
		// the region — the position the exit barrier's section would
		// have had.  A region may leave several constructs open, so the
		// entries queue until the join.
		p.pendingDrops = append(p.pendingDrops, seq)
	}
	p.f.tr.Record(p.id, trace.LoopEnd, kind.String(), int64(seq))
}

// FusedJoin closes a fused construct: every process contributes one
// bit-encoded value (reduce.NumInt carries an int64, reduce.NumReal a
// float64 via math.Float64bits), all receive the pid-order fold under
// op, and none proceeds before the fold is complete — the DOALL's exit
// guarantee and the reduction, one collective.  The force's two
// reusable episodes alternate, so the steady state allocates nothing.
func (p *Proc) FusedJoin(op reduce.Op, k reduce.NumKind, x uint64) uint64 {
	f := p.f
	f.pc.Check()
	f.stats.Reductions.Add(1)
	faultinject.Fire(faultinject.FusedJoin, p.id, f.pc)
	ep := f.fusedEps[p.fuse&1]
	p.fuse++
	p.enterSite(&siteFused)
	var out uint64
	if len(p.pendingDrops) > 0 {
		seqs := p.pendingDrops
		out = ep.Do(p.id, op, k, x, func() {
			for _, seq := range seqs {
				f.dropEntry(seq)
			}
		})
		p.pendingDrops = p.pendingDrops[:0]
	} else {
		out = ep.Do(p.id, op, k, x, nil)
	}
	p.leaveSite()
	return out
}
