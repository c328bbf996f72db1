package core

// variants.go — the five run-time choices of a force (README, "Which
// variants exist") as one value, one Option and one flag set.  forcerun,
// forcec and every program internal/codegen emits declare, default and
// parse -barrier -reduce -selfsched -askfor -chunk here and nowhere else.

import (
	"flag"
	"strconv"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Variants selects the realization a force runs on each axis the command
// line exposes.  The zero value is every default.
type Variants struct {
	// Selfsched is the discipline of Selfsched DO loops and selfscheduled
	// Pcase; zero selects the paper's lock-based one (sched.SelfLock).
	Selfsched sched.Kind
	// Reduce is the strategy executing global reductions.
	Reduce reduce.Kind
	// Barrier is the global barrier algorithm.
	Barrier barrier.Kind
	// Askfor is the Askfor pool discipline.
	Askfor engine.PoolKind
	// Chunk is the span size of the sched.Chunk discipline (0 keeps
	// sched.DefaultChunk).
	Chunk int
}

// WithVariants selects all five at once.
func WithVariants(v Variants) Option {
	return func(f *Force) { f.variants = v }
}

// Args spells v as the command-line arguments VariantFlags parses back
// into it, defaults left out: the zero value is no arguments.
func (v Variants) Args() []string {
	var args []string
	if v.Barrier != barrier.TwoLock {
		args = append(args, "-barrier", v.Barrier.String())
	}
	if v.Reduce != reduce.PrivateSlots {
		args = append(args, "-reduce", v.Reduce.String())
	}
	if v.Selfsched != 0 && v.Selfsched != sched.SelfLock {
		args = append(args, "-selfsched", v.Selfsched.String())
	}
	if v.Askfor != engine.StealingPool {
		args = append(args, "-askfor", v.Askfor.String())
	}
	if v.Chunk > 0 {
		args = append(args, "-chunk", strconv.Itoa(v.Chunk))
	}
	return args
}

// VariantFlags declares the five flags on fs and returns the function
// that, after fs is parsed, yields the selected Variants — or, for a
// spelling no axis accepts, the error naming the accepted ones.  baked
// are arguments in Args' form that replace the standard defaults: the
// choices a generated program was compiled with (forcec -go -reduce
// critical).
func VariantFlags(fs *flag.FlagSet, baked ...string) func() (Variants, error) {
	bar := fs.String("barrier", barrier.TwoLock.String(), "barrier algorithm: twolock or sense")
	self := fs.String("selfsched", sched.SelfLock.String(), "discipline for Selfsched DO and selfscheduled Pcase: selfsched-lock, selfsched-atomic or selfsched-chunk")
	ask := fs.String("askfor", engine.StealingPool.String(), "Askfor pool discipline: stealing or monitor")
	red := fs.String("reduce", reduce.PrivateSlots.String(), "global-reduction strategy: critical or slots")
	chunk := fs.Int("chunk", 0, "span size for the selfsched-chunk discipline (0 = its default, 16)")
	for i := 0; i+1 < len(baked); i += 2 {
		name := baked[i][1:]
		if err := fs.Set(name, baked[i+1]); err != nil {
			panic(err)
		}
		fs.Lookup(name).DefValue = baked[i+1]
	}
	return func() (v Variants, err error) {
		if v.Barrier, err = barrier.ParseKind(*bar); err != nil {
			return v, err
		}
		if v.Selfsched, err = sched.ParseSelfschedKind(*self); err != nil {
			return v, err
		}
		if v.Askfor, err = engine.ParsePoolKind(*ask); err != nil {
			return v, err
		}
		v.Reduce, err = reduce.ParseKind(*red)
		v.Chunk = *chunk
		return v, err
	}
}
