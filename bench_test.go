// Benchmarks regenerating the reproduction's experiment tables, one
// benchmark family per experiment of cmd/forcebench (which prints the same
// data as formatted tables; README.md, "Benchmarks"):
//
//	BenchmarkBarrier              T2   barrier algorithm comparison [AJ87]
//	BenchmarkBarrierLockAblation  A1   two-lock barrier over lock kinds
//	BenchmarkDoall                T3   presched vs selfsched under skew
//	BenchmarkLock                 T4   lock categories under contention
//	BenchmarkAsync                T5   produce/consume realizations
//	BenchmarkCreation             T6   process creation models (persistent force: cost paid once at New)
//	BenchmarkPcase, BenchmarkAskfor  T7  block dispatch and dynamic pools
//	BenchmarkAskforPutHeavy       T9   monitor pool vs stealing deques at zero grain
//	BenchmarkReduce               T10  global-reduction strategies
//	BenchmarkApps                 T8   application kernels
//	BenchmarkSelfschedChunk       A2   chunk-size ablation
//	BenchmarkExpand               F1   the macro pipeline itself
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/machine"
	"repro/internal/maclib"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/workload"
)

// benchNPs are the force sizes used across the benchmark families.
var benchNPs = []int{1, 4, 8}

// runForce launches np goroutines as bare force processes.
func runForce(np int, body func(pid int)) {
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			body(pid)
		}(p)
	}
	wg.Wait()
}

// T2: one op = one barrier episode crossed by np processes.
func BenchmarkBarrier(b *testing.B) {
	for _, bk := range barrier.Kinds() {
		for _, np := range benchNPs {
			b.Run(fmt.Sprintf("%s/np=%d", bk, np), func(b *testing.B) {
				bar := barrier.New(bk, np, lock.Factory(lock.TTAS))
				episodes := b.N
				b.ResetTimer()
				runForce(np, func(pid int) {
					for e := 0; e < episodes; e++ {
						bar.Sync(pid, nil)
					}
				})
			})
		}
	}
}

// A1: the paper's barrier over every lock category.
func BenchmarkBarrierLockAblation(b *testing.B) {
	const np = 4
	for _, lk := range lock.Kinds() {
		b.Run(lk.String(), func(b *testing.B) {
			bar := barrier.NewTwoLock(np, lock.Factory(lk))
			episodes := b.N
			b.ResetTimer()
			runForce(np, func(pid int) {
				for e := 0; e < episodes; e++ {
					bar.Sync(pid, nil)
				}
			})
		})
	}
}

// T3: one op = one full DOALL over n iterations of the given cost shape.
func BenchmarkDoall(b *testing.B) {
	const n = 512
	costs := []struct {
		name string
		cost workload.Cost
	}{
		{"uniform", workload.Uniform(300)},
		{"triangular", workload.Triangular(600 / n)},
		{"bursty", workload.Bursty(40, 2500, 37)},
	}
	kinds := []sched.Kind{sched.PreschedBlock, sched.PreschedCyclic, sched.SelfLock, sched.SelfAtomic, sched.Chunk, sched.Guided, sched.Stealing}
	for _, cm := range costs {
		for _, k := range kinds {
			for _, np := range []int{4, 8} {
				b.Run(fmt.Sprintf("%s/%s/np=%d", cm.name, k, np), func(b *testing.B) {
					f := core.New(np, core.WithChunk(16))
					defer f.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f.Run(func(p *core.Proc) {
							p.DoAll(k, sched.Seq(n), func(it int) {
								workload.SpinSink += workload.Spin(cm.cost(it))
							})
						})
					}
				})
			}
		}
	}
}

// T4: one op = one acquire/release by each of np contending processes.
func BenchmarkLock(b *testing.B) {
	for _, lk := range lock.Kinds() {
		for _, np := range benchNPs {
			b.Run(fmt.Sprintf("%s/np=%d", lk, np), func(b *testing.B) {
				l := lock.New(lk)
				acquires := b.N
				b.ResetTimer()
				runForce(np, func(pid int) {
					for i := 0; i < acquires; i++ {
						l.Lock()
						l.Unlock()
					}
				})
			})
		}
	}
}

// T5: one op = one produce+consume transfer through the cell.
func BenchmarkAsync(b *testing.B) {
	for _, impl := range asyncvar.Impls() {
		b.Run(impl.String(), func(b *testing.B) {
			v := asyncvar.New[int](impl, lock.Factory(lock.TTAS))
			items := b.N
			b.ResetTimer()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < items; i++ {
					v.Produce(i)
				}
			}()
			for i := 0; i < items; i++ {
				v.Consume()
			}
			wg.Wait()
		})
	}
}

// T6: one op = dispatch an empty program to the persistent force and
// join.  The machine's creation cost is paid once at core.New, outside
// the timer — the paper's create-force-then-reuse driver — so all
// creation models converge to the same handoff cost here; BenchmarkNew
// measures the creation itself.
func BenchmarkCreation(b *testing.B) {
	profiles := []machine.Profile{machine.Encore, machine.Alliant, machine.HEP, machine.Native}
	for _, m := range profiles {
		for _, np := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s-%s/np=%d", m.Name, m.Creation, np), func(b *testing.B) {
				f := core.New(np, core.WithMachine(m))
				defer f.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Run(func(p *core.Proc) {})
				}
			})
		}
	}
}

// T6 companion: one op = create a force (workers pay the machine's
// creation cost), run an empty program, and release it — the §4.1.1
// creation-model comparison the persistent engine amortizes away.
func BenchmarkNew(b *testing.B) {
	profiles := []machine.Profile{machine.Encore, machine.Alliant, machine.HEP, machine.Native}
	for _, m := range profiles {
		for _, np := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s-%s/np=%d", m.Name, m.Creation, np), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f := core.New(np, core.WithMachine(m))
					f.Run(func(p *core.Proc) {})
					f.Close()
				}
			})
		}
	}
}

// T7a: one op = dispatch of one 32-block Pcase across the force.
func BenchmarkPcase(b *testing.B) {
	const np, blocks = 4, 32
	for _, selfsched := range []bool{false, true} {
		name := "presched"
		if selfsched {
			name = "selfsched"
		}
		b.Run(name, func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			bl := make([]core.Block, blocks)
			for i := range bl {
				bl[i] = core.Case(func() { workload.SpinSink += workload.Spin(40) })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Run(func(p *core.Proc) {
					if selfsched {
						p.SelfschedPcase(bl...)
					} else {
						p.Pcase(bl...)
					}
				})
			}
		})
	}
}

// T7b: one op = one Askfor pool draining a dynamic binary tree, for both
// pool disciplines (the work-stealing deques and the [LO83]-style central
// monitor baseline).
func BenchmarkAskfor(b *testing.B) {
	const depth = 10
	for _, kind := range engine.PoolKinds() {
		for _, np := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/tree-depth-%d/np=%d", kind, depth, np), func(b *testing.B) {
				f := core.New(np, core.WithAskfor(kind))
				defer f.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Run(func(p *core.Proc) {
						p.Askfor([]any{1}, func(task any, put func(any)) {
							d := task.(int)
							workload.SpinSink += workload.Spin(120)
							if d < depth {
								put(d + 1)
								put(d + 1)
							}
						})
					})
				}
			})
		}
	}
}

// T7c: the put-heavy ablation — near-zero task grain, so pool overhead is
// the whole cost and the monitor's serialization is maximally exposed.
func BenchmarkAskforPutHeavy(b *testing.B) {
	const depth = 12
	for _, kind := range engine.PoolKinds() {
		for _, np := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s/np=%d", kind, np), func(b *testing.B) {
				f := core.New(np, core.WithAskfor(kind))
				defer f.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Run(func(p *core.Proc) {
						p.Askfor([]any{1}, func(task any, put func(any)) {
							if d := task.(int); d < depth {
								put(d + 1)
								put(d + 1)
							}
						})
					})
				}
			})
		}
	}
}

// T10: global reductions, one op = a Run of `rounds` back-to-back
// global integer sums (the reduction-dense convergence-loop shape) under
// each strategy.  The critical strategy serializes every contribution on
// one lock; slots/tree/atomic are the contention-free replacements.
func BenchmarkReduce(b *testing.B) {
	const rounds = 256
	for _, kind := range reduce.Kinds() {
		for _, np := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/np=%d", kind, np), func(b *testing.B) {
				f := core.New(np, core.WithReduce(kind))
				defer f.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Run(func(p *core.Proc) {
						acc := 0
						for r := 0; r < rounds; r++ {
							acc = core.Gsum(p, acc%5+p.ID())
						}
						workload.SpinSink += uint64(acc)
					})
				}
			})
		}
	}
}

// T8: application kernels, sequential baseline vs the force versions.
func BenchmarkApps(b *testing.B) {
	const n = 96
	a := workload.Matrix(n, 1)
	bb := workload.Matrix(n, 2)
	sysA, sysB, _ := workload.SystemWithSolution(n, 3)
	grid := workload.Grid(n)
	vec := workload.Vector(1<<14, 4)

	b.Run("matmul/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SeqMatMul(a, bb, n)
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("matmul/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			for i := 0; i < b.N; i++ {
				apps.MatMul(f, sched.SelfAtomic, a, bb, n)
			}
		})
	}
	b.Run("gauss/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apps.SeqSolve(sysA, sysB, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("gauss/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			for i := 0; i < b.N; i++ {
				if _, err := apps.Solve(f, sysA, sysB, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("jacobi/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SeqJacobi(grid, n, 0, 20)
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("jacobi/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			for i := 0; i < b.N; i++ {
				apps.Jacobi(f, grid, n, 0, 20)
			}
		})
	}
	b.Run("scan/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SeqScan(vec)
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("scan/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			for i := 0; i < b.N; i++ {
				apps.Scan(f, vec)
			}
		})
	}
	b.Run("quad/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SeqQuad(apps.Spike, 0, 1, 1e-8)
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("quad/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			for i := 0; i < b.N; i++ {
				apps.Quad(f, apps.Spike, 0, 1, 1e-8)
			}
		})
	}
	b.Run("histogram/critical/np=4", func(b *testing.B) {
		data := workload.Vector(1<<13, 9)
		for i := range data {
			data[i] = (data[i] + 1) / 2
		}
		f := core.New(4)
		defer f.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apps.HistogramCritical(f, data, 64)
		}
	})
	b.Run("histogram/private/np=4", func(b *testing.B) {
		data := workload.Vector(1<<13, 9)
		for i := range data {
			data[i] = (data[i] + 1) / 2
		}
		f := core.New(4)
		defer f.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apps.HistogramPrivate(f, data, 64)
		}
	})
	b.Run("sor/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SeqSOR(grid, n, 1.5, 0, 20)
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("sor/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			for i := 0; i < b.N; i++ {
				apps.SOR(f, grid, n, 1.5, 0, 20)
			}
		})
	}
	b.Run("nbody/seq", func(b *testing.B) {
		bodies := apps.NewBodies(256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apps.SeqNBodyStep(bodies, 1e-4)
		}
	})
	for _, np := range []int{4, 8} {
		b.Run(fmt.Sprintf("nbody/force/np=%d", np), func(b *testing.B) {
			f := core.New(np)
			defer f.Close()
			bodies := apps.NewBodies(256)
			b.ResetTimer()
			apps.NBodySteps(f, sched.SelfAtomic, bodies, 1e-4, b.N)
		})
	}
}

// A2: chunk-size ablation on a fine-grained loop.
func BenchmarkSelfschedChunk(b *testing.B) {
	const n, np = 1 << 12, 4
	for _, chunk := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			f := core.New(np, core.WithChunk(chunk))
			defer f.Close()
			for i := 0; i < b.N; i++ {
				f.Run(func(p *core.Proc) {
					p.ChunkDo(sched.Seq(n), func(it int) {
						workload.SpinSink += workload.Spin(5)
					})
				})
			}
		})
	}
	b.Run("guided", func(b *testing.B) {
		f := core.New(np)
		defer f.Close()
		for i := 0; i < b.N; i++ {
			f.Run(func(p *core.Proc) {
				p.GuidedDo(sched.Seq(n), func(it int) {
					workload.SpinSink += workload.Spin(5)
				})
			})
		}
	})
}

// F1: one op = the full two-pass macro pipeline over the paper's example.
func BenchmarkExpand(b *testing.B) {
	src := "Selfsched DO 100 K = START, LAST, INCR\nC (* LOOPBODY *)\n100 End Selfsched DO\n"
	for _, m := range []string{"generic", "sequent", "hep"} {
		b.Run(m, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := maclib.Expand(m, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
