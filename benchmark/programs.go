package main

// programs.go — the benchmark's own Force programs and their committed
// goldens, embedded so the binary needs no file at run time, and the
// script op: source text -> forcelang.Parse -> vet.Analyze -> interp.Run
// with forcerun's default options -> output compared with the golden.

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/vet"
)

//go:embed programs
var programFS embed.FS

// program is one benchmark-owned Force program.  The golden (want) was
// produced once by the tree walker at np=1 and is never regenerated by
// the benchmark.  A "C bench: key=value ..." comment line in the source
// states what the budget needs and counters cannot tell: the loop
// iterations of one run and how many of its DOALL episodes are
// selfscheduled (the rest are prescheduled).
type program struct {
	name      string
	src, want string
	iters     int64
	selfLoops int64
}

// loadPrograms reads every program of programs/<dir>, sorted by name.
func loadPrograms(dir string) ([]*program, error) {
	entries, err := programFS.ReadDir(path.Join("programs", dir))
	if err != nil {
		return nil, err
	}
	var progs []*program
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".force") {
			continue
		}
		p, err := loadProgram(dir, strings.TrimSuffix(e.Name(), ".force"))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	return progs, nil
}

func loadProgram(dir, name string) (*program, error) {
	src, err := programFS.ReadFile(path.Join("programs", dir, name+".force"))
	if err != nil {
		return nil, err
	}
	want, err := programFS.ReadFile(path.Join("programs", dir, name+".want"))
	if err != nil {
		return nil, fmt.Errorf("program %s/%s has no golden: %w", dir, name, err)
	}
	p := &program{name: name, src: string(src), want: string(want)}
	for _, line := range strings.Split(p.src, "\n") {
		rest, ok := strings.CutPrefix(line, "C bench:")
		if !ok {
			continue
		}
		for _, kv := range strings.Fields(rest) {
			k, v, _ := strings.Cut(kv, "=")
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("program %s/%s: bad manifest entry %q", dir, name, kv)
			}
			switch k {
			case "iters":
				p.iters = n
			case "selfsched":
				p.selfLoops = n
			default:
				return nil, fmt.Errorf("program %s/%s: unknown manifest key %q", dir, name, k)
			}
		}
	}
	return p, nil
}

// forcerunDefaults is the interp.Config that cmd/forcerun builds when it
// is given no flags but -np; the spellings are forcerun's flag defaults,
// parsed the way forcerun parses them.
func forcerunDefaults() (interp.Config, error) {
	prof, err := machine.ByName("native")
	if err != nil {
		return interp.Config{}, err
	}
	bk, err := barrier.ParseKind("twolock")
	if err != nil {
		return interp.Config{}, err
	}
	sk, err := sched.ParseSelfschedKind("selfsched-lock")
	if err != nil {
		return interp.Config{}, err
	}
	pool, err := engine.ParsePoolKind("stealing")
	if err != nil {
		return interp.Config{}, err
	}
	rk, err := reduce.ParseKind("slots")
	if err != nil {
		return interp.Config{}, err
	}
	return interp.Config{
		Machine:   prof,
		Barrier:   bk,
		Selfsched: sk,
		Askfor:    pool,
		Reduce:    rk,
		Exec:      interp.ExecChunked,
		Context:   context.Background(),
	}, nil
}

// counts are the exact per-run counters the traced run gathers: the
// force's Stats (summed over processes by the runtime, so a collective
// every process enters counts np times) and the compiler's fusion log.
type counts struct {
	ops                                                   int
	barriers, loops, criticals, reductions, askfor, pcase int64
	fused, declined                                       int64
	diags                                                 int64
	srcBytes                                              int64
}

// addStats adds sign times the force's counters: +1 after a run on a
// fresh force; -1 before and +1 after a run on a persistent one, whose
// counters are cumulative.
func (c *counts) addStats(s *core.Stats, sign int64) {
	c.barriers += sign * s.Barriers.Load()
	c.loops += sign * s.Loops.Load()
	c.criticals += sign * s.Criticals.Load()
	c.reductions += sign * s.Reductions.Load()
	c.askfor += sign * s.AskforTasks.Load()
	c.pcase += sign * s.PcaseBlocks.Load()
}

// add folds another unit's counters into c.
func (c *counts) add(o counts) {
	c.ops += o.ops
	c.barriers += o.barriers
	c.loops += o.loops
	c.criticals += o.criticals
	c.reductions += o.reductions
	c.askfor += o.askfor
	c.pcase += o.pcase
	c.fused += o.fused
	c.declined += o.declined
	c.diags += o.diags
	c.srcBytes += o.srcBytes
}

// scriptRunner runs script ops.  One runner serves one unit: its output
// buffer is reused from op to op.
type scriptRunner struct {
	cfg interp.Config
	out bytes.Buffer
}

// Span names: the layers a script op crosses.
const (
	spanOp      = "op"
	spanParse   = "forcelang.Parse"
	spanVet     = "vet.Analyze"
	spanRun     = "interp.Run"
	spanCompile = "interp.compile"
	spanExecute = "interp.execute"
	spanEnsure  = "aot.Ensure"
	spanAotRun  = "aot.Run"
	spanForce   = "core.Force.Run"
)

// front parses and vets the source the way forcerun does before it picks
// a tier.  A program that draws a diagnostic fails the op: the programs
// are committed forcevet-clean.
func front(p *program, tr *tracer, c *counts) (*forcelang.Program, bool) {
	sp := tr.begin(spanParse)
	prog, err := forcelang.Parse(p.src)
	tr.end(sp)
	if err != nil {
		return nil, false
	}
	sp = tr.begin(spanVet)
	diags, err := vet.Analyze(prog)
	tr.end(sp)
	if c != nil {
		c.ops++
		c.srcBytes += int64(len(p.src))
		c.diags += int64(len(diags))
	}
	return prog, err == nil && len(diags) == 0
}

// run performs one script op on the default (chunked interpreter) tier at
// np and reports whether its output matched the golden.  With a tracer
// the op's layers are recorded as spans and its counters added to c.
func (r *scriptRunner) run(p *program, np int, tr *tracer, c *counts) bool {
	op := tr.begin(spanOp)
	defer tr.end(op)
	prog, ok := front(p, tr, c)
	if !ok {
		return false
	}
	cfg := r.cfg
	cfg.NP = np
	r.out.Reset()
	cfg.Stdout = &r.out
	var err error
	if tr == nil {
		err = interp.Run(prog, cfg)
	} else {
		run := tr.begin(spanRun)
		phase := tr.begin(spanCompile)
		var force *core.Force
		cfg.OnForce = func(f *core.Force) {
			force = f
			tr.end(phase)
			phase = tr.begin(spanExecute)
		}
		cfg.FuseLog = func(msg string) {
			if strings.Contains(msg, "declined") {
				c.declined++
			} else {
				c.fused++
			}
		}
		err = interp.Run(prog, cfg)
		tr.end(phase)
		tr.end(run)
		if force != nil {
			c.addStats(force.Stats(), +1)
		}
	}
	return err == nil && string(r.out.Bytes()) == p.want
}
