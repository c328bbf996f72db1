package core

import (
	"fmt"
	"testing"

	"repro/internal/asyncvar"
	"repro/internal/machine"
)

// BenchmarkAsyncHandoff is the asynchronous variables' committed row, in
// the shape of forcemark's asyncvar.handoff_ns probe: the cost of one
// Produce -> Consume handoff on a running force, per realization — between
// two processes (a ping-pong over two variables, one op = one handoff) and
// inside one (a Produce followed by its Consume).  The word cell's np=2
// row is what a handoff costs when both processes own a CPU: the line the
// value travels in, and no visit to the scheduler.
func BenchmarkAsyncHandoff(b *testing.B) {
	for _, impl := range asyncvar.Impls() {
		prof := machine.Native
		prof.Async = impl
		for _, np := range []int{2, 1} {
			b.Run(fmt.Sprintf("%s/np=%d", impl, np), func(b *testing.B) {
				f := New(np, WithMachine(prof))
				defer f.Close()
				ping, pong := NewAsync[int](f), NewAsync[int](f)
				trips := (b.N + 1) / 2
				b.ReportAllocs()
				b.ResetTimer()
				f.Run(func(p *Proc) {
					for i := 0; i < trips; i++ {
						switch {
						case np == 1:
							ping.Produce(i)
							ping.Consume()
							pong.Produce(i)
							pong.Consume()
						case p.ID() == 0:
							ping.Produce(i)
							pong.Consume()
						default:
							pong.Produce(ping.Consume())
						}
					}
				})
			})
		}
	}
}
