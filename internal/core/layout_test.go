package core

import (
	"testing"
	"unsafe"
)

// lines returns the cache lines the bytes [p, p+n) occupy.
func lines(p unsafe.Pointer, n uintptr) (first, last uintptr) {
	return uintptr(p) / 64, (uintptr(p) + n - 1) / 64
}

// TestPerProcessStateLayout: everything a process writes at every
// construct — its Proc's cursors and counters, its watchdog slot, its
// slot of each closing collective — sits in a slice beside its
// neighbours', and no two processes' share a cache line: a process
// bumping its own construct cursor must not invalidate its neighbour's.
// (Proc was 40 bytes through PR 25; pids 0 and 1 shared a line, and
// nextSeq alone was 5 % of fused-rounds at np=2.)
func TestPerProcessStateLayout(t *testing.T) {
	for _, size := range []uintptr{unsafe.Sizeof(Proc{}), unsafe.Sizeof(procSite{}), unsafe.Sizeof(paddedWord{})} {
		if size%64 != 0 {
			t.Errorf("a per-process element is %d bytes, not a whole number of cache lines", size)
		}
	}
	if unsafe.Sizeof(Proc{}) != 128 {
		t.Errorf("Proc is %d bytes, want 128 (two lines: the adjacent-line prefetcher pairs them)", unsafe.Sizeof(Proc{}))
	}
	var p Proc
	if hot := unsafe.Offsetof(p.stats) + unsafe.Sizeof(p.stats); unsafe.Offsetof(p.seq) != 0 || hot > 64 {
		t.Errorf("Proc's written fields end at byte %d, want them first and within one line", hot)
	}
	for np := 2; np <= 9; np++ {
		f := New(np)
		owner := map[uintptr]int{}
		claim := func(what string, pid int, ptr unsafe.Pointer, n uintptr) {
			first, last := lines(ptr, n)
			for l := first; l <= last; l++ {
				if other, taken := owner[l]; taken && other != pid {
					t.Errorf("np=%d: %s of process %d shares a cache line with state of process %d", np, what, pid, other)
				}
				owner[l] = pid
			}
		}
		for pid := 0; pid < np; pid++ {
			p := &f.procs[pid]
			claim("Proc cursors and counters", pid, unsafe.Pointer(p), unsafe.Offsetof(p.stats)+unsafe.Sizeof(p.stats))
			claim("watchdog slot", pid, unsafe.Pointer(&f.sites[pid]), unsafe.Sizeof(f.sites[pid].construct)+unsafe.Sizeof(f.sites[pid].note))
			for c := range f.closers {
				w := &f.closers[c].slots[pid]
				claim("collective slot", pid, unsafe.Pointer(w), unsafe.Sizeof(w.word))
			}
		}
		f.Close()
	}
}
