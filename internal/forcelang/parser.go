package forcelang

import (
	"fmt"
	"strings"
)

// Parse parses a Force dialect source text into a Program and runs the
// semantic checker.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	prog.Source = src
	return prog, nil
}

// MustParse is Parse panicking on error, for compiled-in programs.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

// accept consumes the current token if it is an identifier with the given
// upper-case text.
func (p *parser) accept(word string) bool {
	if p.cur().kind == tokIdent && p.cur().text == word {
		p.pos++
		return true
	}
	return false
}

// acceptSym consumes the current token if it is the given symbol.
func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectWord(word string) error {
	if !p.accept(word) {
		return p.errf("expected %s, found %s", word, p.cur())
	}
	return nil
}

// expectWords consumes the given identifiers — the closing words of a
// construct.  A statement list also ends at the end of the text, so the
// closer may simply be missing.
func (p *parser) expectWords(words ...string) error {
	if !p.peekWords(words...) {
		return p.errf("expected %s, found %s", strings.Join(words, " "), p.cur())
	}
	p.pos += len(words)
	return nil
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier, found %s", p.cur())
	}
	return p.next().text, nil
}

func (p *parser) expectEOL() error {
	if p.cur().kind == tokEOL {
		p.pos++
		return nil
	}
	if p.cur().kind == tokEOF {
		return nil
	}
	return p.errf("unexpected %s at end of statement", p.cur())
}

// peekWord reports whether the current token is the given identifier
// without consuming it.
func (p *parser) peekWord(word string) bool {
	return p.cur().kind == tokIdent && p.cur().text == word
}

// peekWords reports whether the next tokens are the given identifiers.
func (p *parser) peekWords(words ...string) bool {
	for i, w := range words {
		if p.pos+i >= len(p.toks) {
			return false
		}
		t := p.toks[p.pos+i]
		if t.kind != tokIdent || t.text != w {
			return false
		}
	}
	return true
}

// --- program ----------------------------------------------------------

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	// Header: Force NAME of NP ident ME
	if err := p.expectWord("FORCE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	prog.Name = name
	if err := p.expectWord("OF"); err != nil {
		return nil, err
	}
	if prog.NPVar, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectWord("IDENT"); err != nil {
		return nil, err
	}
	if prog.MeVar, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	// Declarations up to End Declarations.
	prog.Decls, err = p.parseDecls()
	if err != nil {
		return nil, err
	}
	// Body up to Join.
	prog.Body, err = p.parseStmts("JOIN")
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("JOIN"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	// Optional Forcesub definitions after Join.
	for p.cur().kind != tokEOF {
		sub, err := p.parseSub()
		if err != nil {
			return nil, err
		}
		prog.Subs = append(prog.Subs, sub)
	}
	return prog, nil
}

func (p *parser) parseDecls() ([]Decl, error) {
	var decls []Decl
	for {
		if p.peekWords("END", "DECLARATIONS") {
			p.pos += 2
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			return decls, nil
		}
		if p.cur().kind == tokEOF {
			return nil, p.errf("missing End Declarations")
		}
		var class Class
		switch {
		case p.accept("SHARED"):
			class = Shared
		case p.accept("PRIVATE"):
			class = Private
		case p.accept("ASYNC"):
			class = Async
		default:
			return nil, p.errf("expected Shared, Private, Async or End Declarations, found %s", p.cur())
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		// One or more names, comma separated, each optionally
		// dimensioned.
		for {
			line := int(p.cur().line)
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			d := Decl{Class: class, Type: typ, Name: name, Line: line}
			if p.acceptSym("(") {
				for {
					if p.cur().kind != tokInt {
						return nil, p.errf("array dimension must be an integer literal")
					}
					dim := int(p.next().ival())
					if dim <= 0 {
						return nil, fmt.Errorf("line %d: array dimension must be positive", line)
					}
					d.Dims = append(d.Dims, dim)
					if p.acceptSym(",") {
						continue
					}
					break
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				if len(d.Dims) > 2 {
					return nil, fmt.Errorf("line %d: at most 2 dimensions supported", line)
				}
			}
			decls = append(decls, d)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseType() (Type, error) {
	switch {
	case p.accept("INTEGER"):
		return TInt, nil
	case p.accept("REAL"):
		return TReal, nil
	case p.accept("LOGICAL"):
		return TLogical, nil
	default:
		return 0, p.errf("expected INTEGER, REAL or LOGICAL, found %s", p.cur())
	}
}

func (p *parser) parseSub() (*Subroutine, error) {
	line := int(p.cur().line)
	if err := p.expectWord("FORCESUB"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sub := &Subroutine{Name: name, Line: line}
	if p.acceptSym("(") {
		if !p.acceptSym(")") {
			for {
				param, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				sub.Params = append(sub.Params, param)
				if p.acceptSym(",") {
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	if sub.Decls, err = p.parseDecls(); err != nil {
		return nil, err
	}
	if sub.Body, err = p.parseStmts("ENDSUB"); err != nil {
		return nil, err
	}
	if err := p.expectWord("ENDSUB"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return sub, nil
}

// --- statements --------------------------------------------------------

// stopSet describes the identifiers that terminate a statement list; the
// terminator is not consumed.
func (p *parser) atStop(stops ...string) bool {
	if p.cur().kind == tokEOF {
		return true
	}
	for _, s := range stops {
		switch s {
		case "END-IF":
			if p.peekWords("END", "IF") {
				return true
			}
		case "ELSE":
			if p.peekWord("ELSE") {
				return true
			}
		case "END-DO":
			if p.peekWords("END", "DO") {
				return true
			}
		case "END-PRESCHED":
			if p.peekWords("END", "PRESCHED") {
				return true
			}
		case "END-SELFSCHED":
			if p.peekWords("END", "SELFSCHED") {
				return true
			}
		case "END-BARRIER":
			if p.peekWords("END", "BARRIER") {
				return true
			}
		case "END-CRITICAL":
			if p.peekWords("END", "CRITICAL") {
				return true
			}
		case "END-PCASE":
			if p.peekWords("END", "PCASE") {
				return true
			}
		case "END-ASKFOR":
			if p.peekWords("END", "ASKFOR") {
				return true
			}
		case "USECT":
			if p.peekWord("USECT") {
				return true
			}
		case "CSECT":
			if p.peekWord("CSECT") {
				return true
			}
		default:
			if p.peekWord(s) {
				return true
			}
		}
	}
	return false
}

func (p *parser) parseStmts(stops ...string) ([]Stmt, error) {
	var stmts []Stmt
	for {
		if p.atStop(stops...) {
			return stmts, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	line := int(p.cur().line)
	base := stmtBase{Line: line}
	switch {
	case p.peekWord("IF"):
		return p.parseIf()
	case p.peekWords("PRESCHED", "DO"):
		p.pos += 2
		return p.parseParDo(Presched, base)
	case p.peekWords("SELFSCHED", "DO"):
		p.pos += 2
		return p.parseParDo(Selfsched, base)
	case p.peekWords("DO", "WHILE"):
		p.pos += 2
		return p.parseWhileDo(base)
	case p.peekWord("DO"):
		p.pos++
		return p.parseSeqDo(base)
	case p.peekWord("BARRIER"):
		p.pos++
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		section, err := p.parseStmts("END-BARRIER")
		if err != nil {
			return nil, err
		}
		if err := p.expectWords("END", "BARRIER"); err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &BarrierStmt{stmtBase: base, Section: section}, nil
	case p.peekWord("CRITICAL"):
		p.pos++
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		body, err := p.parseStmts("END-CRITICAL")
		if err != nil {
			return nil, err
		}
		if err := p.expectWords("END", "CRITICAL"); err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &CriticalStmt{stmtBase: base, Name: name, Body: body}, nil
	case p.peekWord("ASKFOR"):
		p.pos++
		return p.parseAskfor(base)
	case p.peekWord("PUT"):
		p.pos++
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &PutStmt{stmtBase: base, Expr: expr}, nil
	case p.peekWord("PCASE"):
		return p.parsePcase(base)
	case p.peekGOp() != nil:
		op := *p.peekGOp()
		p.pos++
		target, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &ReduceStmt{stmtBase: base, Op: op, Target: target, Expr: e}, nil
	case p.peekWord("PRODUCE"):
		p.pos++
		name, sub, err := p.parseAsyncRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &ProduceStmt{stmtBase: base, Var: name, Sub: sub, Expr: e}, nil
	case p.peekWord("CONSUME"), p.peekWord("COPY"):
		isCopy := p.peekWord("COPY")
		p.pos++
		name, sub, err := p.parseAsyncRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("INTO"); err != nil {
			return nil, err
		}
		target, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		if isCopy {
			return &CopyStmt{stmtBase: base, Var: name, Sub: sub, Target: target}, nil
		}
		return &ConsumeStmt{stmtBase: base, Var: name, Sub: sub, Target: target}, nil
	case p.peekWord("VOID"):
		p.pos++
		name, sub, err := p.parseAsyncRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &VoidStmt{stmtBase: base, Var: name, Sub: sub}, nil
	case p.peekWord("PRINT"):
		p.pos++
		var items []Expr
		for {
			if p.cur().kind == tokString {
				t := p.next()
				items = append(items, &StrLit{exprBase: at(int(t.line)), Value: t.text})
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				items = append(items, e)
			}
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &PrintStmt{stmtBase: base, Items: items}, nil
	case p.peekWord("CALL"):
		p.pos++
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		call := &CallStmt{stmtBase: base, Name: name}
		if p.acceptSym("(") {
			if !p.acceptSym(")") {
				for {
					ref, err := p.parseRef()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, ref)
					if p.acceptSym(",") {
						continue
					}
					break
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return call, nil
	case p.cur().kind == tokIdent:
		// Assignment.
		target, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		return &Assign{stmtBase: base, Target: target, Expr: e}, nil
	default:
		return nil, p.errf("unexpected %s at start of statement", p.cur())
	}
}

func (p *parser) parseIf() (Stmt, error) {
	base := stmtBase{Line: int(p.cur().line)}
	p.pos++ // IF
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectWord("THEN"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	thenStmts, err := p.parseStmts("ELSE", "END-IF")
	if err != nil {
		return nil, err
	}
	var elseStmts []Stmt
	if p.accept("ELSE") {
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		if elseStmts, err = p.parseStmts("END-IF"); err != nil {
			return nil, err
		}
	}
	if err := p.expectWords("END", "IF"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return &If{stmtBase: base, Cond: cond, Then: thenStmts, Else: elseStmts}, nil
}

// parseLoopHeader parses "VAR = from, to[, step]".
func (p *parser) parseLoopHeader() (v string, from, to, step Expr, err error) {
	if v, err = p.expectIdent(); err != nil {
		return
	}
	if err = p.expectSym("="); err != nil {
		return
	}
	if from, err = p.parseExpr(); err != nil {
		return
	}
	if err = p.expectSym(","); err != nil {
		return
	}
	if to, err = p.parseExpr(); err != nil {
		return
	}
	if p.acceptSym(",") {
		if step, err = p.parseExpr(); err != nil {
			return
		}
	}
	return
}

func (p *parser) parseSeqDo(base stmtBase) (Stmt, error) {
	v, from, to, step, err := p.parseLoopHeader()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts("END-DO")
	if err != nil {
		return nil, err
	}
	if err := p.expectWords("END", "DO"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return &SeqDo{stmtBase: base, Var: v, From: from, To: to, Step: step, Body: body}, nil
}

func (p *parser) parseWhileDo(base stmtBase) (Stmt, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts("END-DO")
	if err != nil {
		return nil, err
	}
	if err := p.expectWords("END", "DO"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return &WhileDo{stmtBase: base, Cond: cond, Body: body}, nil
}

func (p *parser) parseParDo(kind SchedKind, base stmtBase) (Stmt, error) {
	v, from, to, step, err := p.parseLoopHeader()
	if err != nil {
		return nil, err
	}
	pd := &ParDo{stmtBase: base, Sched: kind, Var: v, From: from, To: to, Step: step}
	// Optional second index on the same line: "; J = f2, t2[, s2]" is
	// expressed with a comma-free "ALSO" keyword for doubly nested
	// DOALLs: Presched DO I = 1, N also J = 1, M
	if p.accept("ALSO") {
		iv, ifrom, ito, istep, err := p.parseLoopHeader()
		if err != nil {
			return nil, err
		}
		pd.Inner = &ParDoInner{Var: iv, From: ifrom, To: ito, Step: istep}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	stop := "END-PRESCHED"
	if kind == Selfsched {
		stop = "END-SELFSCHED"
	}
	if pd.Body, err = p.parseStmts(stop); err != nil {
		return nil, err
	}
	if err := p.expectWords("END", strings.TrimPrefix(stop, "END-"), "DO"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return pd, nil
}

// peekGOp reports (without consuming) whether the current token starts a
// global-reduction statement, returning the operator.
func (p *parser) peekGOp() *GOp {
	if p.cur().kind != tokIdent {
		return nil
	}
	for _, op := range GOps() {
		if p.cur().text == op.String() {
			op := op
			return &op
		}
	}
	return nil
}

// parseAskfor parses Askfor VAR = seed ... End Askfor (ASKFOR already
// consumed).
func (p *parser) parseAskfor(base stmtBase) (Stmt, error) {
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("="); err != nil {
		return nil, err
	}
	seed, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts("END-ASKFOR")
	if err != nil {
		return nil, err
	}
	if err := p.expectWords("END", "ASKFOR"); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return &AskforStmt{stmtBase: base, Var: v, Seed: seed, Body: body}, nil
}

func (p *parser) parsePcase(base stmtBase) (Stmt, error) {
	p.pos++ // PCASE
	ps := &PcaseStmt{stmtBase: base}
	if p.accept("SELFSCHED") {
		ps.Selfsched = true
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekWord("USECT"):
			line := int(p.cur().line)
			p.pos++
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			body, err := p.parseStmts("USECT", "CSECT", "END-PCASE")
			if err != nil {
				return nil, err
			}
			ps.Blocks = append(ps.Blocks, PcaseBlock{Body: body, Line: line})
		case p.peekWord("CSECT"):
			line := int(p.cur().line)
			p.pos++
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			body, err := p.parseStmts("USECT", "CSECT", "END-PCASE")
			if err != nil {
				return nil, err
			}
			ps.Blocks = append(ps.Blocks, PcaseBlock{Cond: cond, Body: body, Line: line})
		case p.peekWords("END", "PCASE"):
			p.pos += 2
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			if len(ps.Blocks) == 0 {
				return nil, fmt.Errorf("line %d: Pcase with no Usect/Csect blocks", base.Line)
			}
			return ps, nil
		default:
			return nil, p.errf("expected Usect, Csect or End Pcase, found %s", p.cur())
		}
	}
}

// parseAsyncRef parses the variable part of a Produce/Consume/Copy/Void
// statement: a name with an optional single subscript.
func (p *parser) parseAsyncRef() (string, Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	if !p.acceptSym("(") {
		return name, nil, nil
	}
	sub, err := p.parseExpr()
	if err != nil {
		return "", nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return "", nil, err
	}
	return name, sub, nil
}

// --- expressions -------------------------------------------------------

func (p *parser) parseRef() (Ref, error) {
	line := int(p.cur().line)
	name, err := p.expectIdent()
	if err != nil {
		return Ref{}, err
	}
	r := Ref{exprBase: at(line), Name: name}
	if p.acceptSym("(") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return Ref{}, err
			}
			r.Subs = append(r.Subs, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return Ref{}, err
		}
	}
	return r, nil
}

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokDotOp && p.cur().text == ".OR." {
		line := int(p.next().line)
		right, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		left = &Bin{exprBase: at(line), Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAndExpr() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokDotOp && p.cur().text == ".AND." {
		line := int(p.next().line)
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Bin{exprBase: at(line), Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.cur().kind == tokDotOp && p.cur().text == ".NOT." {
		line := int(p.next().line)
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Un{exprBase: at(line), Neg: false, X: x}, nil
	}
	return p.parseRel()
}

var relOps = map[string]BinOp{
	".EQ.": OpEq, ".NE.": OpNe, ".LT.": OpLt, ".LE.": OpLe, ".GT.": OpGt, ".GE.": OpGe,
}

func (p *parser) parseRel() (Expr, error) {
	left, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokDotOp {
		if op, ok := relOps[p.cur().text]; ok {
			line := int(p.next().line)
			right, err := p.parseArith()
			if err != nil {
				return nil, err
			}
			return &Bin{exprBase: at(line), Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseArith() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		t := p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		left = &Bin{exprBase: at(int(t.line)), Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
		t := p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := OpMul
		if t.text == "/" {
			op = OpDiv
		}
		left = &Bin{exprBase: at(int(t.line)), Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokSymbol && p.cur().text == "-" {
		line := int(p.next().line)
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Un{exprBase: at(line), Neg: true, X: x}, nil
	}
	if p.cur().kind == tokSymbol && p.cur().text == "+" {
		p.pos++
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.pos++
		return &IntLit{exprBase: at(int(t.line)), Value: t.ival()}, nil
	case tokReal:
		p.pos++
		return &RealLit{exprBase: at(int(t.line)), Value: t.rval()}, nil
	case tokDotOp:
		switch t.text {
		case ".TRUE.":
			p.pos++
			return &BoolLit{exprBase: at(int(t.line)), Value: true}, nil
		case ".FALSE.":
			p.pos++
			return &BoolLit{exprBase: at(int(t.line)), Value: false}, nil
		}
		return nil, p.errf("unexpected %s in expression", t)
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %s in expression", t)
	case tokIdent:
		name := t.text
		if IsIntrinsic(name) && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			p.pos += 2
			call := &Intrinsic{exprBase: at(int(t.line)), Name: name}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, e)
				if p.acceptSym(",") {
					continue
				}
				break
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		ref, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		return &ref, nil
	default:
		return nil, p.errf("unexpected %s in expression", t)
	}
}
