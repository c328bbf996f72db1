package interp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestStoreBlockMatchesPortable holds the block-store kernel to the
// portable loop (storeAtomic, on amd64 kept only as this oracle) for every
// step sign and size the block form produces and every block length up to
// the block width, each block once against the array's first element and
// once against its last.
func TestStoreBlockMatchesPortable(t *testing.T) {
	const n = 2048
	for _, step := range []int64{-3, -1, 1, 2, 8} {
		for _, l := range []int{0, 1, 255, 256} {
			src := make([]uint64, l)
			for k := range src {
				src[k] = uint64(k+1) * 0x9e3779b97f4a7c15
			}
			span := step * int64(max(l-1, 0))
			lo, hi := min(0, span), max(0, span)
			for _, off := range []int64{-lo, n - 1 - hi} {
				want, got := make([]atomic.Uint64, n), make([]atomic.Uint64, n)
				for k := range want {
					want[k].Store(^uint64(k))
					got[k].Store(^uint64(k))
				}
				storeAtomic(want, off, step, src)
				storeBlock(got, off, step, src)
				for k := range want {
					if w, g := want[k].Load(), got[k].Load(); w != g {
						t.Fatalf("step %d, len %d, off %d: word %d = %#x, want %#x", step, l, off, k, g, w)
					}
				}
			}
		}
	}
}

// TestStoreBlockChecksBeforeStoring: a block with either end outside the
// array panics with Go's own index error, and stores nothing first.
func TestStoreBlockChecksBeforeStoring(t *testing.T) {
	src := make([]uint64, 256)
	for k := range src {
		src[k] = 7
	}
	for _, tc := range []struct{ off, step int64 }{
		{0, 1},    // last offset 255, one past the end
		{254, -1}, // last offset -1
		{255, -1}, // first offset one past the end
		{-2, 2},   // first offset negative
		{3, 9},    // last offset far past the end
	} {
		data := make([]atomic.Uint64, 255)
		func() {
			defer func() {
				err, ok := recover().(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Errorf("off %d, step %d: recovered %v, want Go's index error", tc.off, tc.step, err)
				}
			}()
			storeBlock(data, tc.off, tc.step, src)
		}()
		for k := range data {
			if v := data[k].Load(); v != 0 {
				t.Fatalf("off %d, step %d: word %d stored (%d) before the panic", tc.off, tc.step, k, v)
			}
		}
	}
}
