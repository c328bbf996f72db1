package interp

// Runtime of the compiled executor: index-addressed frames, the
// per-process execution context, the instance-wide storage (per-variable
// shared cells, atomic-word arrays, async entries), and the Run driver.  The
// compiler in compile.go produces closures over these structures.

import (
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/forcelang"
)

// stmtFn is one compiled statement.
type stmtFn func(pr *cproc, fr *frame)

// valFn is a compiled expression producing a boxed value; intFn, realFn
// and boolFn are the unboxed specializations the compiler prefers when
// the checker's static type allows.
type valFn func(pr *cproc, fr *frame) value
type intFn func(pr *cproc, fr *frame) int64
type realFn func(pr *cproc, fr *frame) float64
type boolFn func(pr *cproc, fr *frame) bool

// frame is one executing unit's index-addressed storage view: private
// scalar slots, private arrays, and the by-reference parameter bindings
// of the current call.  No name is resolved at execution time.
type frame struct {
	priv   []value
	arrs   []*privArray
	params []cparam
}

// cparam is one bound parameter: a scalar alias or a whole-array alias.
type cparam struct {
	sc scalarRef
	ar arrayRef
}

// cproc is one force process executing the compiled program.
type cproc struct {
	in *cinstance
	p  *core.Proc
	// puts is the stack of enclosing Askfor put functions; the innermost
	// one serves Put statements.
	puts []func(any)
	// k is the chunk context of the chunk-compiled DOALL this process is
	// executing (chunk.go).  One per process suffices: the classifier
	// admits only Assign, IF and sequential DO into a chunk body, so no
	// chunk body can call out or nest a construct.
	k kctx
	// ride is what the process hands the closing collective it is about
	// to enter (fuse.go).
	ride rider
}

// cunit is one compiled unit: its frame layout plus the statement
// closures of its body (filled after every unit shell exists, so calls —
// including recursive ones — link by pointer).
type cunit struct {
	lay  *unitLayout
	body []stmtFn
	// pool recycles this unit's frames between calls, but only when
	// recycling is semantically free: a unit with private arrays would
	// have to re-zero them on every call, which costs what the
	// allocation did, so such units always take fresh frames.  Pooled
	// frames are fully re-initialized on get — private scalars recopied
	// from the typed-zero template, every parameter rebound by the call
	// — so reuse is unobservable.  A panicking call skips the put and
	// abandons the frame.
	pool *sync.Pool
}

// newFrame builds a fresh frame for the unit: typed-zero private scalars
// with ME in slot 0, fresh private arrays, and empty parameter bindings
// for the caller to fill.
func (u *cunit) newFrame(me int64) *frame {
	lay := u.lay
	fr := &frame{priv: privSlots(len(lay.privInit))}
	copy(fr.priv, lay.privInit)
	fr.priv[0] = intVal(me)
	if n := len(lay.privArrs); n > 0 {
		fr.arrs = make([]*privArray, n)
		for i, sym := range lay.privArrs {
			if sym != nil {
				fr.arrs[i] = newPrivArray(sym.Decl)
			}
		}
	}
	if n := len(lay.params); n > 0 {
		fr.params = make([]cparam, n)
	}
	return fr
}

// getFrame builds or recycles a frame for one call (or one process's
// main-body run).
func (u *cunit) getFrame(me int64) *frame {
	if u.pool == nil {
		return u.newFrame(me)
	}
	fr := u.pool.Get().(*frame)
	lay := u.lay
	if cap(fr.priv) < len(lay.privInit) {
		fr.priv = privSlots(len(lay.privInit))
	}
	fr.priv = fr.priv[:len(lay.privInit)]
	copy(fr.priv, lay.privInit)
	fr.priv[0] = intVal(me)
	if n := len(lay.params); len(fr.params) != n {
		fr.params = make([]cparam, n)
	}
	return fr
}

// privSlots makes a frame's n private slots with the capacity rounded up
// to whole 64-byte cache lines.  A process writes its slots on every
// private store, and the processes' frames are allocated back to back on
// the goroutine that starts the force: unrounded, three 32-byte slots
// share a line with the next process's.  A value holds no pointer and
// every allocation size class that is a whole number of lines starts on
// a line, so the rounded slots do too.
func privSlots(n int) []value {
	const size = int(unsafe.Sizeof(value{}))
	const run = 64 / min(size&-size, 64) // the fewest slots that fill whole lines
	return make([]value, n, (n+run-1)/run*run)
}

// putFrame returns a frame to the unit's pool; the caller must not
// retain it.
func (u *cunit) putFrame(fr *frame) {
	if u.pool != nil {
		u.pool.Put(fr)
	}
}

// cprogram is a fully compiled program.
type cprogram struct {
	units map[string]*cunit
	main  *cunit
}

// cinstance is the shared state of one compiled run: slot-indexed
// per-variable shared storage instead of the tree walker's name-keyed
// maps behind one mutex.
type cinstance struct {
	prog    *forcelang.Program
	cfg     Config
	res     *resolution
	scalars map[string][]*sharedScalar
	arrays  map[string][]*sharedArray
	asyncs  map[string][]*asyncEntry
	out     *outsink
}

func newCInstance(prog *forcelang.Program, cfg Config, res *resolution, f *core.Force) *cinstance {
	in := &cinstance{
		prog:    prog,
		cfg:     cfg,
		res:     res,
		scalars: map[string][]*sharedScalar{},
		arrays:  map[string][]*sharedArray{},
		asyncs:  map[string][]*asyncEntry{},
		out:     newOutsink(cfg.Stdout),
	}
	for unit, alloc := range res.allocs {
		ss := make([]*sharedScalar, len(alloc.scalars))
		for i, sym := range alloc.scalars {
			if sym != nil {
				ss[i] = newSharedScalar(sym.Type)
			}
		}
		sa := make([]*sharedArray, len(alloc.arrays))
		for i, sym := range alloc.arrays {
			if sym != nil {
				sa[i] = newSharedArray(sym.Decl)
			}
		}
		as := make([]*asyncEntry, len(alloc.asyncs))
		for i, sym := range alloc.asyncs {
			if sym != nil {
				as[i] = newAsyncEntry(sym.Decl, cfg, f)
			}
		}
		in.scalars[unit] = ss
		in.arrays[unit] = sa
		in.asyncs[unit] = as
	}
	// NP is shared-scalar slot 0 of the main unit.
	in.scalars[""][0].storeInt(int64(cfg.NP))
	return in
}

// scalar and array are the storage behind a shared symbol.
func (in *cinstance) scalar(sym *forcelang.Symbol) *sharedScalar {
	return in.scalars[sym.Unit][sym.Slot]
}
func (in *cinstance) array(sym *forcelang.Symbol) *sharedArray { return in.arrays[sym.Unit][sym.Slot] }

// runCompiled resolves, compiles and executes the program on the core
// runtime — both compiled-family engines (Config.Exec == ExecChunked,
// the default, or ExecCompiled); the compiler consults cfg.Exec to
// decide whether DOALL bodies get the chunk tier.
func runCompiled(prog *forcelang.Program, cfg Config) (err error) {
	res, err := resolveProgram(prog)
	if err != nil {
		return err
	}
	f := newForce(cfg)
	defer f.Close()
	in := newCInstance(prog, cfg, res, f)
	cp, err := compileProgram(in)
	if err != nil {
		return err
	}
	if cfg.OnForce != nil {
		cfg.OnForce(f)
	}
	defer func() {
		// Flush in every exit path, but never let a flush error clobber
		// the run's own failure (a cancellation error, an abort).
		flushErr := in.out.flush()
		if r := recover(); r != nil {
			err = recoverRunErr(r)
			return
		}
		if err == nil {
			err = flushErr
		}
	}()
	return f.RunContext(runCtx(cfg), func(p *core.Proc) {
		pr := &cproc{in: in, p: p}
		fr := cp.main.getFrame(int64(p.ID()))
		runBody(cp.main.body, pr, fr)
		cp.main.putFrame(fr)
	})
}
