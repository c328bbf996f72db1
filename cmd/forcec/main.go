// Command forcec is the Force preprocessor/compiler driver, the
// counterpart of the paper's three-step UNIX pipeline (§4.3).
//
// Modes:
//
//	forcec -expand [-machine generic|hep|flex32|encore|sequent|alliant|cray2] file.force
//	    Run the two-pass macro pipeline (sed rules, then the two macro
//	    layers) and print the Fortran-shaped expansion.  With the
//	    default "generic" machine the low-level macros stay symbolic,
//	    matching the paper's expansion listing.
//
//	forcec -go [-pkg main] [-np N] [-barrier ALG] [-reduce STRAT] [-selfsched KIND] [-askfor POOL] file.force
//	    Parse and type-check the program and emit Go source targeting
//	    the runtime library.  The generated main takes -np and forcerun's
//	    four runtime flags (-barrier -reduce -selfsched -askfor,
//	    same spellings, same errors) on its own command line; given
//	    here, they set what those flags default to and change nothing
//	    else in the output (-np below 1 is a usage error).
//
//	forcec -check file.force
//	    Parse and type-check only.
//
//	forcec -explain FV001
//	    Print the long-form rule text behind a forcevet diagnostic
//	    code and exit; no input file is read.
//
// Every compiling mode (-check, -go, -cache) also runs the forcevet
// static analyzer (internal/vet) after the type check: collective
// consistency (FV001), provable faults (FV002/FV003), shared-memory
// races (FV101/FV102) and asyncvar protocol breaks (FV201/FV202).
// Diagnostics print on standard error; -vet=warn (the default) reports
// and continues, -vet=err reports and fails, -vet=off skips the
// analysis.
//
//	forcec -cache [-v] file.force
//	    Compile the program into the ahead-of-time binary cache — the
//	    same content-addressed store forcerun's -exec aot tier
//	    executes from ($FORCE_CACHE or ~/.cache/force) — and print the
//	    cache key, status (hit or built) and binary path.  The key is
//	    the source text, so one pre-warm serves every -np and every
//	    runtime flag forcerun is later given.  Use it so a program's
//	    first -exec aot run is already native.  -v also reports, on
//	    standard error, the DOALL plan the binary was emitted from — the
//	    "fuse:" lines forcerun -v narrates on every tier.  -timeout D
//	    bounds the pre-warm's `go build` with a wall-clock deadline (same
//	    semantics as forcerun -timeout): an expired build exits 1 and
//	    leaves no entry, so the next -cache (or forcerun) simply rebuilds.
//
// A file name of "-" reads standard input.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/aot"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/maclib"
	"repro/internal/vet"
)

func main() {
	var (
		expand   = flag.Bool("expand", false, "run the sed+m4 macro pipeline and print the expansion")
		goOut    = flag.Bool("go", false, "compile to Go source on stdout")
		check    = flag.Bool("check", false, "parse and type-check only")
		cacheCmd = flag.Bool("cache", false, "compile into the ahead-of-time binary cache and print key, status and path")
		machine  = flag.String("machine", "generic", "machine layer for -expand")
		pkg      = flag.String("pkg", "main", "package name for -go")
		np       = flag.Int("np", 4, "default force size baked into -go output")
		wallTO   = flag.Duration("timeout", 0, "wall-clock deadline for the -cache pre-warm build (0 disables)")
		verbose  = flag.Bool("v", false, "with -cache: report the DOALL plan the binary was emitted from (forcerun -v's fuse: lines) on standard error")
		vetF     = flag.String("vet", "warn", "forcevet static analysis in -check/-go/-cache: warn, err or off")
		explain  = flag.String("explain", "", "print the long-form rule for a forcevet diagnostic code and exit")
	)
	// With -go: the defaults of the generated main's own four flags.
	variants := core.VariantFlags(flag.CommandLine)
	flag.Parse()
	forcert.CheckNP("forcec", *np)
	if *explain != "" {
		text := vet.Explain(*explain)
		if text == "" {
			fmt.Fprintf(os.Stderr, "forcec: unknown diagnostic code %q (known: %s)\n",
				*explain, strings.Join(vet.Codes(), ", "))
			os.Exit(1)
		}
		fmt.Println(text)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: forcec [-expand|-go|-check|-explain CODE] [flags] file.force")
		os.Exit(2)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	switch {
	case *expand:
		out, err := maclib.Expand(*machine, src)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	case *goOut, *cacheCmd:
		prog, err := forcelang.Parse(src)
		if err != nil {
			fail(err)
		}
		if err := vet.Gate(prog, *vetF, "forcec", os.Stderr); err != nil {
			fail(err)
		}
		v, err := variants()
		if err != nil {
			fail(err)
		}
		if *cacheCmd {
			cache, err := aot.Open("")
			if err != nil {
				fail(err)
			}
			ctx := context.Background()
			if *wallTO > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, *wallTO)
				defer cancel()
			}
			// The binary takes the runtime flags itself: nothing to bake.
			entry, err := cache.EnsureContext(ctx, prog, aot.Options{})
			if err != nil {
				fail(err)
			}
			status := "built"
			if cache.Stats().Builds == 0 {
				status = "hit"
			}
			fmt.Printf("key: %s\nstatus: %s\nbinary: %s\n", entry.Key, status, entry.Bin)
			if *verbose {
				for _, line := range entry.Plan() {
					fmt.Fprintf(os.Stderr, "forcec: fuse: %s\n", line)
				}
			}
			return
		}
		out, err := codegen.Generate(prog, codegen.Options{Package: *pkg, DefaultNP: *np,
			Selfsched: v.Selfsched, Reduce: v.Reduce, Barrier: v.Barrier, Askfor: v.Askfor})
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(out)
	case *check:
		prog, err := forcelang.Parse(src)
		if err != nil {
			fail(err)
		}
		if err := vet.Gate(prog, *vetF, "forcec", os.Stderr); err != nil {
			fail(err)
		}
		fmt.Println("ok")
	default:
		fmt.Fprintln(os.Stderr, "forcec: one of -expand, -go or -check is required")
		os.Exit(2)
	}
}

func readSource(name string) (string, error) {
	if name == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(name)
	return string(b), err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "forcec:", err)
	os.Exit(1)
}
