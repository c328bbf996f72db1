package forcelang

import "testing"

// TestLexAllocatesOnce pins the lexer's one allocation, the token slice: a
// program whose words are all keywords, in any case, or upper-case names
// lexes without a string of its own.
func TestLexAllocatesOnce(t *testing.T) {
	const src = `C keywords in mixed case, user names in upper case
Force SUM of NP ident ME
Shared Real A(64), TOTAL
Private Integer I
End Declarations
      Presched DO I = 1, 64
        A(I) = Real(I) * 0.5   ! a trailing comment
      End Presched DO
      GSum TOTAL = A(ME + 1)
      Barrier
        IF (ME .eq. 0 .And. TOTAL .GT. 1.0E2) THEN
          Print 'total', TOTAL
        End IF
      End Barrier
Join
`
	if _, err := lex(src); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { lex(src) }); got != 1 {
		t.Errorf("lex allocates %v times per run, want 1 (the token slice)", got)
	}
}

// BenchmarkParse is the front end's committed row: Parse — lexer, parser
// and checker — over the script-cold programs, read at test time.  One op
// parses one program, the programs in turn, so ns/op, B/op and allocs/op
// are per program.
func BenchmarkParse(b *testing.B) {
	paths, srcs := readSources(b, "../../benchmark/programs/script-cold/*.force")
	if len(srcs) == 0 {
		b.Fatal("no script-cold programs found")
	}
	for i, src := range srcs {
		if _, err := Parse(src); err != nil {
			b.Fatalf("%s: %v", paths[i], err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parse(srcs[i%len(srcs)])
	}
}
