package core

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// TestVariantFlagsRoundTrip: every configuration the five flags span
// survives Args -> VariantFlags, given on the command line or baked in as
// a generated program's defaults; a command-line value beats a baked one;
// the zero value is no arguments and parses back as the defaults.
func TestVariantFlagsRoundTrip(t *testing.T) {
	parse := func(baked, args []string) (Variants, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		variants := VariantFlags(fs, baked...)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return variants()
	}
	if args := (Variants{}).Args(); len(args) != 0 {
		t.Errorf("the zero value spells %q, want no arguments", args)
	}
	if args := (Variants{Selfsched: sched.SelfLock, Chunk: -1}).Args(); len(args) != 0 {
		t.Errorf("explicit defaults spell %q, want no arguments", args)
	}
	for _, bk := range barrier.Kinds() {
		for _, rk := range reduce.Kinds() {
			for _, sk := range []sched.Kind{sched.SelfLock, sched.SelfAtomic, sched.Chunk} {
				for _, pool := range engine.PoolKinds() {
					for _, chunk := range []int{0, 5} {
						want := Variants{Selfsched: sk, Reduce: rk, Barrier: bk, Askfor: pool, Chunk: chunk}
						if got, err := parse(nil, want.Args()); err != nil || got != want {
							t.Errorf("%q on the command line parses as %+v, %v; want %+v", want.Args(), got, err, want)
						}
						if got, err := parse(want.Args(), nil); err != nil || got != want {
							t.Errorf("%q baked parses as %+v, %v; want %+v", want.Args(), got, err, want)
						}
					}
				}
			}
		}
	}
	got, err := parse([]string{"-reduce", "critical", "-chunk", "9"}, []string{"-reduce", "slots"})
	if want := (Variants{Selfsched: sched.SelfLock, Reduce: reduce.PrivateSlots, Chunk: 9}); err != nil || got != want {
		t.Errorf("baked critical, given slots: %+v, %v; want %+v", got, err, want)
	}
	if _, err := parse(nil, []string{"-selfsched", "presched-block"}); err == nil || !strings.Contains(err.Error(), "selfsched-atomic") {
		t.Errorf("-selfsched presched-block: %v, want an error naming the accepted disciplines", err)
	}
}
