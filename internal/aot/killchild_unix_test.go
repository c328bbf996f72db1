//go:build unix

package aot

import (
	"context"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/forcelang"
)

// TestChildKilledOutFromUnder is the ISSUE's kill -9 test: SIGKILL the
// running child out from under the parent.  The parent must report the
// failure (not hang, not claim success), and the cache entry must stay
// valid — an external kill says nothing about the binary.
func TestChildKilledOutFromUnder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(stallSrc)
	entry, err := c.Ensure(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan int, 1)
	testChildStarted = func(pid int) { started <- pid }
	defer func() { testChildStarted = nil }()

	errc := make(chan error, 1)
	go func() {
		var sb strings.Builder
		errc <- entry.RunContext(context.Background(), 4, &sb)
	}()
	pid := <-started
	time.Sleep(100 * time.Millisecond) // let the child get going
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9 %d: %v", pid, err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("parent reported success for a kill -9'd child")
		}
		if strings.HasPrefix(err.Error(), "force runtime") {
			t.Errorf("external kill misreported as a program error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parent did not reap the killed child")
	}
	if !cached(c, prog) {
		t.Error("kill -9 invalidated the cache entry")
	}
}
