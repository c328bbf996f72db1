package m4lite

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func expand(t *testing.T, in string) string {
	t.Helper()
	p := NewProcessor()
	out, err := p.Expand(in)
	if err != nil {
		t.Fatalf("Expand(%q): %v", in, err)
	}
	return out
}

func TestPlainTextPassesThrough(t *testing.T) {
	in := "      K = K + 1\nC a Fortran comment\n"
	if got := expand(t, in); got != in {
		t.Errorf("got %q, want unchanged", got)
	}
}

func TestDefineAndExpand(t *testing.T) {
	got := expand(t, "define(NPROC, 8)dnl\nNPROC processes")
	if got != "8 processes" {
		t.Errorf("got %q", got)
	}
}

func TestArgumentsSubstitution(t *testing.T) {
	got := expand(t, "define(swap, `$2 $1')dnl\nswap(a, b)")
	if got != "b a" {
		t.Errorf("got %q", got)
	}
}

func TestDollarZeroHashStarAt(t *testing.T) {
	// $0 is requoted in the body: as in real m4, an unquoted $0 would be
	// rescanned and recurse forever.  $# is not a parameter: it stays text.
	got := expand(t, "define(m, ``$0':$3$2$1:$9$#')dnl\nm(x, y, z)")
	if got != "m:zyx:$#" {
		t.Errorf("got %q", got)
	}
}

func TestMissingArgsAreEmpty(t *testing.T) {
	got := expand(t, "define(m, `[$1][$2]')dnl\nm(only)")
	if got != "[only][]" {
		t.Errorf("got %q", got)
	}
}

func TestRescanning(t *testing.T) {
	// The expansion of a is rescanned, finding b.
	got := expand(t, "define(b, final)dnl\ndefine(a, b)dnl\na")
	if got != "final" {
		t.Errorf("got %q", got)
	}
}

func TestQuotingSuppressesExpansion(t *testing.T) {
	got := expand(t, "define(x, 9)dnl\n`x' x")
	if got != "x 9" {
		t.Errorf("got %q", got)
	}
}

func TestNestedQuotesStripOneLevel(t *testing.T) {
	got := expand(t, "``x''")
	if got != "`x'" {
		t.Errorf("got %q", got)
	}
}

func TestQuotedArgumentsNotExpanded(t *testing.T) {
	got := expand(t, "define(x, 9)dnl\ndefine(m, `$1')dnl\nm(`x')")
	// $1 is the literal x; after substitution the rescan expands it —
	// true m4 behaviour (single quoting defers, not prevents).
	if got != "9" {
		t.Errorf("got %q", got)
	}
	got = expand(t, "define(x, 9)dnl\ndefine(m, `1$1')dnl\nm(``x'')")
	if got != "1x" {
		t.Errorf("double-quoted arg: got %q", got)
	}
}

func TestLeadingArgWhitespaceSkipped(t *testing.T) {
	got := expand(t, "define(m, `[$1][$2]')dnl\nm(  a,\n   b  )")
	if got != "[a][b  ]" {
		t.Errorf("got %q", got)
	}
}

func TestNestedParensInArgs(t *testing.T) {
	got := expand(t, "define(m, `<$1>')dnl\nm(f(a, b))")
	if got != "<f(a, b)>" {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacroCallsInArgs(t *testing.T) {
	got := expand(t, "define(inc, `($1+1)')dnl\ndefine(m, `[$1]')dnl\nm(inc(inc(0)))")
	if got != "[((0+1)+1)]" {
		t.Errorf("got %q", got)
	}
}

func TestBareBuiltinWithoutParens(t *testing.T) {
	// A defined macro expands bare; an undefined name passes through.
	got := expand(t, "define(K, 7)dnl\nK undefinedname")
	if got != "7 undefinedname" {
		t.Errorf("got %q", got)
	}
}

func TestIfelse(t *testing.T) {
	cases := map[string]string{
		"ifelse(a, a, eq)":                   "eq",
		"ifelse(a, b, eq)":                   "",
		"ifelse(a, b, eq, ne)":               "ne",
		"ifelse(a, b, x, a, a, y, z)":        "y",
		"ifelse(a, b, x, c, d, y, fallback)": "fallback",
		"ifelse(onearg)":                     "",
	}
	for in, want := range cases {
		if got := expand(t, in); got != want {
			t.Errorf("%s = %q, want %q", in, got, want)
		}
	}
}

func TestIncrDecrLenIndexSubstr(t *testing.T) {
	// incr is the one arithmetic builtin the layers call; decr, len,
	// index and substr are not builtins, so a call of one is text.
	cases := map[string]string{
		"incr(41)":  "42",
		"incr( 0)":  "1",
		"incr(-1)":  "0",
		"decr(43)":  "decr(43)",
		"len(five)": "len(five)",
	}
	for in, want := range cases {
		if got := expand(t, in); got != want {
			t.Errorf("%s = %q, want %q", in, got, want)
		}
	}
}

func TestDnlEatsThroughNewline(t *testing.T) {
	got := expand(t, "define(x, 1)dnl trailing garbage\nx")
	if got != "1" {
		t.Errorf("got %q", got)
	}
}

func TestHashCommentVerbatim(t *testing.T) {
	got := expand(t, "define(x, 9)dnl\n# x should not expand\nx")
	if got != "# x should not expand\n9" {
		t.Errorf("got %q", got)
	}
}

func TestErrors(t *testing.T) {
	p := NewProcessor()
	for _, in := range []string{
		"define(m, `$1')dnl\nm(unterminated",
		"`unterminated quote",
		"define(`bad name', x)",
		"define(`', x)",
		"incr(x)",
	} {
		if _, err := p.Expand(in); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

func TestRunawayRecursionDetected(t *testing.T) {
	for _, in := range []string{
		"define(x, `x y')dnl\nx",
		// The argument grows at every level, so each call rescans more:
		// the work bound, not the call count, has to stop these.
		"define(count, `ifelse($1, 0, , `count(nope($1))')')dnl\ncount(3)",
		"define(count, `$1 ifelse($1, 0, , `count(nope($1))')')dnl\ncount(3)",
	} {
		start := time.Now()
		_, err := NewProcessor().Expand(in)
		if err == nil || !strings.Contains(err.Error(), "expansion limit") {
			t.Errorf("%q: got %v, want an expansion limit error", in, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%q: took %v to stop", in, d)
		}
	}
}

func TestRecursiveCountdownMacro(t *testing.T) {
	// Bounded recursion through ifelse must terminate: a count up.
	src := "define(up, `$1 ifelse($1, 3, , `up(incr($1))')')dnl\nup(0)"
	got := expand(t, src)
	cleaned := strings.Join(strings.Fields(got), " ")
	if cleaned != "0 1 2 3" {
		t.Errorf("got %q (cleaned %q)", got, cleaned)
	}
}

func TestLoadRequiresSilentFile(t *testing.T) {
	p := NewProcessor()
	if err := p.Load("define(a, 1)dnl\ndefine(b, 2)dnl\n"); err != nil {
		t.Errorf("silent file rejected: %v", err)
	}
	if !p.Defined("a") || !p.Defined("b") {
		t.Error("Load did not install definitions")
	}
	if err := p.Load("define(c, 3)dnl\nstray output\n"); err == nil {
		t.Error("noisy macro file accepted")
	}
}

func TestDefinedCoversBuiltins(t *testing.T) {
	p := NewProcessor()
	if !p.Defined("ifelse") || !p.Defined("define") {
		t.Error("builtins not Defined")
	}
	if p.Defined("nosuch") {
		t.Error("nosuch Defined")
	}
}

// Property: text with no macro names, quotes, comments or parens is a
// fixed point of expansion.
func TestQuickInertTextFixedPoint(t *testing.T) {
	p := NewProcessor()
	prop := func(words []uint16) bool {
		var sb strings.Builder
		for _, w := range words {
			sb.WriteString("v")
			sb.WriteString(strings.Repeat("x", int(w%5)))
			sb.WriteString("9 = + ")
		}
		in := sb.String()
		out, err := p.Expand(in)
		return err == nil && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
