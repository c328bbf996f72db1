package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forcelang"
)

// stallProg parks every process but 0 in the barrier forever.
const stallProg = `Force STALL of NP ident ME
End Declarations
IF (ME .GT. 0) THEN
Barrier
End Barrier
END IF
Join
`

// TestCancelUnblocksRun: Config.Context cancellation must unwind a
// stalled program and surface as the context's error, on every engine.
func TestCancelUnblocksRun(t *testing.T) {
	prog := forcelang.MustParse(stallProg)
	for _, mode := range ExecModes() {
		t.Run(mode.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				errc <- Run(prog, Config{NP: 4, Stdout: io.Discard, Exec: mode, Context: ctx})
			}()
			time.Sleep(20 * time.Millisecond) // let the force park
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancel did not unblock the run")
			}
		})
	}
}

// TestDeadlineExceededSurfaces: a deadline behaves like a cancel but
// reports context.DeadlineExceeded, so callers can tell a wall-clock
// bound from an explicit stop.
func TestDeadlineExceededSurfaces(t *testing.T) {
	prog := forcelang.MustParse(stallProg)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := Run(prog, Config{NP: 2, Stdout: io.Discard, Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestNilContextRunsUnbounded: the zero Config keeps the pre-context
// behavior — a conformant program completes normally.
func TestNilContextRunsUnbounded(t *testing.T) {
	prog := forcelang.MustParse(`Force OK of NP ident ME
End Declarations
Barrier
End Barrier
Join
`)
	if err := Run(prog, Config{NP: 2, Stdout: io.Discard}); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
}

// TestCriticalWatchdogSites: a Critical records the watchdog site only
// while its acquire waits, and leaves the enclosing construct's site in
// place.  In each program one process blocks for good (a Consume nothing
// produces) and the others must report where they wait: for the lock that
// process holds, or at the exit of the DOALL / in the Askfor whose body
// ran an uncontended Critical.  An Askfor task is taken by whoever asks
// first, so there every other process must report the Askfor and at least
// one of them — the tasks are all run by someone — after its Critical.
func TestCriticalWatchdogSites(t *testing.T) {
	for _, tc := range []struct {
		name, body   string
		holder, wait string // the blocked process's site, and the others'
		orWait       string // if set, wait need only be seen once and this fills the rest
	}{
		{name: "waiting-for-the-holder",
			body: `Critical L
  Consume Q into X
End Critical
`,
			holder: "async variable (Consume Q, line 7)", wait: "Critical (Critical L, line 6)"},
		{name: "doall-exit",
			body: `Presched DO I = 1, NP
  Critical L
    S = S + 1
  End Critical
  IF (I .EQ. 1) THEN
    Consume Q into X
  END IF
End Presched DO
`,
			holder: "async variable (Consume Q, line 11)", wait: "DOALL (Critical L, line 7)"},
		{name: "askfor",
			body: `Askfor T = 1
  IF (T .EQ. 1) THEN
    DO K = 2, 4 * NP
      Put K
    End DO
    Consume Q into X
  ELSE
    Critical L
      S = S + 1
    End Critical
  END IF
End Askfor
`,
			holder: "async variable (Consume Q, line 11)", wait: "Askfor (Critical L, line 13)",
			orWait: "Askfor (Askfor, line 6)"},
	} {
		prog := forcelang.MustParse(`Force WATCH of NP ident ME
Shared Integer S
Async Integer Q
Private Integer I, K, T, X
End Declarations
` + tc.body + "Join\n")
		for _, mode := range ExecModes() {
			for _, np := range []int{2, 3} {
				t.Run(fmt.Sprintf("%s/%s/np=%d", tc.name, mode, np), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					forces := make(chan *core.Force, 1)
					errc := make(chan error, 1)
					go func() {
						errc <- Run(prog, Config{NP: np, Exec: mode, Stdout: io.Discard, Context: ctx,
							OnForce: func(f *core.Force) { forces <- f }})
					}()
					f := <-forces
					var sites []string
					for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
						sites = f.Blocked()
						holding, waiting, other := 0, 0, 0
						for _, s := range sites {
							switch s {
							case tc.holder:
								holding++
							case tc.wait:
								waiting++
							case tc.orWait:
								other++
							}
						}
						if holding == 1 && (waiting == np-1 || tc.orWait != "" && waiting > 0 && waiting+other == np-1) {
							sites = nil
							break
						}
					}
					if sites != nil {
						t.Errorf("blocked sites %q, want one %q and %d x %q (or, with at least one of those, %q)", sites, tc.holder, np-1, tc.wait, tc.orWait)
					}
					cancel()
					select {
					case err := <-errc:
						if !errors.Is(err, context.Canceled) {
							t.Errorf("Run = %v, want context.Canceled", err)
						}
					case <-time.After(30 * time.Second):
						t.Fatal("cancel did not unblock the run")
					}
				})
			}
		}
	}
}

// TestRiddenBarrierWatchdogNote: a Barrier riding a closing collective is
// still what the stall watchdog names.  The section of each Barrier below
// stalls (it consumes a cell nobody produces); the processes suspended in
// the collective it rides — a DOALL's exit, a fused join, a standalone
// reduction — report the Barrier's line, the one inside the section the
// statement it blocks in.
func TestRiddenBarrierWatchdogNote(t *testing.T) {
	for _, tc := range []struct{ name, construct, site string }{
		{"doall-exit", "", "Barrier"},
		{"fused-join", "GSUM S = I\n", "fused DOALL+reduction"},
		{"reduction", "S = 0\nGOR ANY = S .GT. 0\n", "global reduction"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := `Force WATCH of NP ident ME
Shared Integer A(8), S
Shared Logical ANY
Async Integer Q
Private Integer I, X
End Declarations
Presched DO I = 1, 8
  A(I) = I
End Presched DO
` + tc.construct
			prog := forcelang.MustParse(head + `Barrier
  Consume Q into X
End Barrier
Join
`)
			line := strings.Count(head, "\n") + 1 // the Barrier's
			waitSite := fmt.Sprintf("%s (Barrier, line %d)", tc.site, line)
			sectionSite := fmt.Sprintf("async variable (Consume Q, line %d)", line+1)
			const np = 3
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			forces := make(chan *core.Force, 1)
			errc := make(chan error, 1)
			go func() {
				errc <- Run(prog, Config{NP: np, Stdout: io.Discard, Context: ctx,
					OnForce: func(f *core.Force) { forces <- f }})
			}()
			f := <-forces
			var sites []string
			for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				sites = f.Blocked()
				waiting, inSection := 0, 0
				for _, s := range sites {
					switch s {
					case waitSite:
						waiting++
					case sectionSite:
						inSection++
					}
				}
				if waiting == np-1 && inSection == 1 {
					sites = nil
					break
				}
			}
			if sites != nil {
				t.Errorf("blocked sites %q, want %d x %q and %q", sites, np-1, waitSite, sectionSite)
			}
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("Run = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancel did not unblock the run")
			}
		})
	}
}
