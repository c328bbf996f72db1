package aot

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/forcelang"
)

// stallSrc is a non-conformant program whose generated binary blocks
// forever (only process 0 reaches the barrier): the subject every
// kill/deadline test needs.
const stallSrc = `Force STALL of NP ident ME
End Declarations
IF (ME .EQ. 0) THEN
Barrier
End Barrier
END IF
Join
`

// TestEnsureContextPreCanceled: a context dead on arrival aborts the
// cold path before any toolchain work, leaving no entry behind.
func TestEnsureContextPreCanceled(t *testing.T) {
	c := openTestCache(t)
	prog := forcelang.MustParse(stallSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.EnsureContext(ctx, prog, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsureContext = %v, want context.Canceled", err)
	}
	if cached(c, prog) {
		t.Error("canceled EnsureContext left a cache entry")
	}
}

// TestRunContextDeadlineKillsChild is the cancellation contract of the
// native tier in one test: a stalled child is killed (whole process
// group) at the deadline, reaped promptly, the context's error is
// relayed, and the cache entry survives the killed run untouched —
// then a cancel (not just a deadline) is checked against the same
// entry, proving the binary stays runnable.
func TestRunContextDeadlineKillsChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(stallSrc)
	entry, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		start := time.Now()
		var sb strings.Builder
		err := entry.RunContext(ctx, 4, &sb)
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RunContext = %v, want context.DeadlineExceeded", err)
		}
		// Kill + reap must be prompt: the deadline plus SIGKILL delivery,
		// not a Wait that lingers on an orphan.
		if elapsed > 10*time.Second {
			t.Errorf("killed run returned after %v, want prompt reap", elapsed)
		}
		if !cached(c, prog) {
			t.Error("deadline-killed run invalidated the cache entry")
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			var sb strings.Builder
			errc <- entry.RunContext(ctx, 4, &sb)
		}()
		time.Sleep(200 * time.Millisecond) // let the child start and stall
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, want context.Canceled", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cancel did not kill the stalled child")
		}
		if !cached(c, prog) {
			t.Error("canceled run invalidated the cache entry")
		}
	})
}

// TestEnsureContextDeadlineDuringBuild: a deadline expiring inside `go
// build` kills the toolchain invocation, reports the context's error,
// and leaves an entry that the next (unbounded) Ensure rebuilds.
func TestEnsureContextDeadlineDuringBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(stallSrc)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.EnsureContext(ctx, prog, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EnsureContext = %v, want context.DeadlineExceeded", err)
	}
	if cached(c, prog) {
		t.Error("killed build left a fresh-looking entry")
	}
	if _, err := c.Ensure(prog, Options{}); err != nil {
		t.Fatalf("rebuild after killed build: %v", err)
	}
}
