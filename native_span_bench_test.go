package repro_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/forcelang"
)

// BenchmarkNativeSpan is the native tier's committed row (README
// "Execution tiers"): forcemark's stream and stencil, scaled to 2400 sweeps,
// built through the aot cache and run at np=1, beside the plain Go loop
// over two slices that does the same updates in this test binary.  Each
// op runs the binary, the same program with no sweep (its launch, init
// loop and checksum) and the Go loop, which must print the binary's
// checksum, so the two do the same work in the same order.  It reports
// per element update the whole binary (aot-ns/elem), its sweeps alone —
// the difference of the two runs — (span-ns/elem), the Go loop
// (go-ns/elem) and the ratio of the last two, x_go.
func BenchmarkNativeSpan(b *testing.B) {
	for _, p := range []struct {
		name, sweeps, scaled, none string
		elems                      int
		plain                      func() string
	}{
		{"stream", "DO S = 1, 48", "DO S = 1, 2400", "DO S = 1, 0", 2400 * 16384, plainStream},
		{"stencil", "DO S = 1, 26", "DO S = 1, 1200", "DO S = 1, 0", 1200 * 2 * 8192, plainStencil},
	} {
		b.Run(p.name, func(b *testing.B) {
			text, err := os.ReadFile("benchmark/programs/doall-stream/" + p.name + ".force")
			if err != nil {
				b.Fatal(err)
			}
			cache, err := aotCache()
			if err != nil {
				b.Fatal(err)
			}
			// build builds the program with its sweep loop respelled and
			// returns a function that runs it once, timed.
			build := func(sweeps string) func() (time.Duration, string) {
				src := strings.Replace(string(text), p.sweeps, sweeps, 1)
				if src == string(text) {
					b.Fatalf("%s: no %q to scale", p.name, p.sweeps)
				}
				entry, err := cache.Ensure(forcelang.MustParse(src), aot.Options{})
				if err != nil {
					b.Fatal(err)
				}
				return func() (time.Duration, string) {
					var out strings.Builder
					start := time.Now()
					if err := entry.RunContext(context.Background(), 1, &out); err != nil {
						b.Fatal(err)
					}
					return time.Since(start), out.String()
				}
			}
			full, none := build(p.scaled), build(p.none)
			b.ResetTimer()
			var native, fixed, plain time.Duration
			for i := 0; i < b.N; i++ {
				t, got := full()
				native += t
				t, _ = none()
				fixed += t
				start := time.Now()
				want := p.plain()
				plain += time.Since(start)
				if got != want {
					b.Fatalf("the binary printed %q, the Go loop %q", got, want)
				}
			}
			per := float64(b.N) * float64(p.elems)
			b.ReportMetric(float64(native.Nanoseconds())/per, "aot-ns/elem")
			b.ReportMetric(float64((native-fixed).Nanoseconds())/per, "span-ns/elem")
			b.ReportMetric(float64(plain.Nanoseconds())/per, "go-ns/elem")
			b.ReportMetric(float64(native-fixed)/float64(plain), "x_go")
		})
	}
}

// plainStream is stream.force at 2400 sweeps as a Go program would write
// it, with its checksum line.
func plainStream() string {
	const n = 16384
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = 1.0, float64((i+1)%7)/1000.0
	}
	for s := 0; s < 2400; s++ {
		for i := range a {
			a[i] = a[i]*0.999 + b[i]
		}
	}
	check := 0.0
	for i := 0; i < n; i += 64 {
		check += a[i]
	}
	return fmt.Sprintf("stream checksum %d\n", int(math.Round(check*1000.0)))
}

// plainStencil is stencil.force at 1200 double sweeps likewise.
func plainStencil() string {
	const n = 8194
	u, v := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i] = float64((i + 1) * 37 % 101)
		v[i] = u[i]
	}
	for s := 0; s < 1200; s++ {
		for i := 1; i < n-1; i++ {
			v[i] = (u[i-1] + u[i] + u[i+1]) / 3.0
		}
		for i := 1; i < n-1; i++ {
			u[i] = (v[i-1] + v[i] + v[i+1]) / 3.0
		}
	}
	check := 0.0
	for i := 0; i < n; i += 32 {
		check += u[i]
	}
	return fmt.Sprintf("stencil checksum %d\n", int(math.Round(check*100.0)))
}
