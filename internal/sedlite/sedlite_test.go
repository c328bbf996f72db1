package sedlite

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"q",                 // unknown command
		"s/a/b",             // missing field
		"s/a/b/x",           // unknown flag
		"s/[/b/",            // bad regexp
		"/pat/d",            // no delete command
		"s/a/b/g",           // no global flag
		"substitute please", // not a command
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("s/a/b")
}

func TestCommentsAndBlanks(t *testing.T) {
	// The comment lines would rewrite "a" if they were commands.
	s, err := Parse("# s/a/x/\n\n  \ns/a/b/\n# s/b/y/\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ApplyLine("a"); got != "b" {
		t.Errorf("got %q, want b", got)
	}
}

func TestSubstituteFirstVsGlobal(t *testing.T) {
	// Only the first match is replaced: there is no g flag.
	if got := MustParse("s/o/0/").ApplyLine("foo boo"); got != "f0o boo" {
		t.Errorf("first-only = %q", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	s := MustParse("s/barrier/BARRIER()/i")
	if got := s.ApplyLine("  Barrier  "); got != "  BARRIER()  " {
		t.Errorf("got %q", got)
	}
}

func TestGroupReferences(t *testing.T) {
	s := MustParse(`s/DO ([0-9]+) ([A-Z]+) = (.*)/do_loop(\1,\2,\3)/`)
	got := s.ApplyLine("DO 100 K = START, LAST, INCR")
	want := "do_loop(100,K,START, LAST, INCR)"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestLiteralDollarInReplacement(t *testing.T) {
	s := MustParse(`s/cost/$5/`)
	if got := s.ApplyLine("cost"); got != "$5" {
		t.Errorf("got %q", got)
	}
}

func TestEscapedBackslash(t *testing.T) {
	s := MustParse(`s/x/\\n/`)
	if got := s.ApplyLine("x"); got != `\n` {
		t.Errorf("got %q", got)
	}
}

func TestAlternateDelimiter(t *testing.T) {
	s := MustParse(`s|/usr/bin|/opt|`)
	if got := s.ApplyLine("/usr/bin/f77"); got != "/opt/f77" {
		t.Errorf("got %q", got)
	}
}

func TestEscapedDelimiter(t *testing.T) {
	s := MustParse(`s/a\/b/X/`)
	if got := s.ApplyLine("a/b"); got != "X" {
		t.Errorf("got %q", got)
	}
}

func TestOrderedApplication(t *testing.T) {
	s := MustParse("s/a/b/\ns/b/c/")
	if got := s.ApplyLine("ax"); got != "cx" {
		t.Errorf("got %q, want cx (commands apply in order)", got)
	}
}

func TestApplyPreservesShape(t *testing.T) {
	s := MustParse("s/a/b/")
	if got := s.Apply("a\na\n"); got != "b\nb\n" {
		t.Errorf("trailing newline: got %q", got)
	}
	if got := s.Apply("a\na"); got != "b\nb" {
		t.Errorf("no trailing newline: got %q", got)
	}
	if got := s.Apply(""); got != "" {
		t.Errorf("empty input: got %q", got)
	}
}

// Property: a substitution with an empty-effect pattern (no match) leaves
// any line unchanged.
func TestQuickNoMatchIsIdentity(t *testing.T) {
	s := MustParse("s/ZZQQX/none/")
	prop := func(line string) bool {
		if strings.Contains(line, "ZZQQX") || strings.ContainsRune(line, '\n') {
			return true
		}
		return s.ApplyLine(line) == line
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
