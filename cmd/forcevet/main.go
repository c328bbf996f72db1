// Command forcevet is the standalone front end of the internal/vet
// static analyzer:
//
//	forcevet [-err] file.force...
//
// Each file is parsed, type-checked and analyzed; diagnostics print as
//
//	file.force:LINE: CODE severity: message
//
// on standard output, one per line.  The exit status is 1 when any
// error-severity diagnostic (FV001, FV002, FV201) was reported — or,
// with -err, when any diagnostic at all was — and 0 on a clean pass,
// so CI can sweep a corpus with a shell loop.  A file that fails to
// parse or type-check reports the front end's error and also exits 1.
// `forcec -explain CODE` prints the long-form rule behind a code.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/forcelang"
	"repro/internal/vet"
)

func main() {
	errAll := flag.Bool("err", false, "exit 1 on any diagnostic, not only error-severity ones")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: forcevet [-err] file.force...")
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		src, err := readSource(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "forcevet:", err)
			failed = true
			continue
		}
		prog, err := forcelang.Parse(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "forcevet: %s: %v\n", path, err)
			failed = true
			continue
		}
		diags, err := vet.Analyze(prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "forcevet: %s: %v\n", path, err)
			failed = true
			continue
		}
		for _, d := range diags {
			fmt.Printf("%s:%d: %s %s: %s\n", path, d.Line, d.Code, d.Sev, d.Message)
			if *errAll || d.Sev == vet.Error {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func readSource(name string) (string, error) {
	if name == "-" {
		b, err := os.ReadFile("/dev/stdin")
		return string(b), err
	}
	b, err := os.ReadFile(name)
	return string(b), err
}
