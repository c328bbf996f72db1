package forcelang

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// tokKind classifies tokens.
type tokKind int32

const (
	tokEOF tokKind = iota
	tokEOL
	tokIdent
	tokInt
	tokReal
	tokString
	tokDotOp  // .EQ. .NE. .LT. .LE. .GT. .GE. .AND. .OR. .NOT. .TRUE. .FALSE.
	tokSymbol // ( ) , = + - * /
)

// A token is 32 bytes.  Its text is a slice of the source wherever the
// source spells it as the parser reads it, which is everywhere but a
// mixed-case user name and a string literal with a doubled quote.
type token struct {
	text string // identifiers upper-cased; dot-ops upper-cased with dots
	num  uint64 // tokInt: the int64's bits; tokReal: the float64's
	line int32
	kind tokKind
}

func (t token) ival() int64   { return int64(t.num) }
func (t token) rval() float64 { return math.Float64frombits(t.num) }

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokEOL:
		return "end of line"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex tokenizes a whole source text in one walk over its lines.  Comment
// lines start with C, c, * or ! in column one; a ! elsewhere comments to
// end of line.  Blank lines are dropped; every remaining line ends with a
// tokEOL.  The tokens go into one slice sized from the length of the text
// (no shipped program needs more than a token per three bytes).
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/3+16)
	lineNo := int32(0)
	for start := 0; start <= len(src); {
		lineNo++
		end := len(src)
		if k := strings.IndexByte(src[start:], '\n'); k >= 0 {
			end = start + k
		}
		line := src[start:end]
		start = end + 1
		// Column-one comment (classic Fortran) — only when the marker
		// is followed by a space or the line is just the marker, so
		// identifiers like "Consume" are not eaten.  A CRLF line's \r
		// is trailing space like any other.
		if t := strings.TrimRight(line, " \t\r"); len(t) > 0 {
			c := t[0]
			if c == '*' || c == '!' ||
				((c == 'C' || c == 'c') && (len(t) == 1 || t[1] == ' ' || t[1] == '\t')) {
				continue
			}
		}
		first := len(toks)
		var err error
		if toks, err = lexLine(toks, line, lineNo); err != nil {
			return nil, err
		}
		if len(toks) > first {
			toks = append(toks, token{kind: tokEOL, line: lineNo})
		}
	}
	return append(toks, token{kind: tokEOF, line: lineNo}), nil
}

// lexLine appends the tokens of one line to toks.
func lexLine(toks []token, line string, lineNo int32) ([]token, error) {
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '!':
			return toks, nil // comment to end of line
		case c == '\'':
			j := i + 1
			doubled := false
			for j < n {
				if line[j] == '\'' {
					if j+1 < n && line[j+1] == '\'' {
						doubled = true
						j += 2
						continue
					}
					break
				}
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("line %d: unterminated string", lineNo)
			}
			text := line[i+1 : j]
			if doubled {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{kind: tokString, text: text, line: lineNo})
			i = j + 1
		case c == '.' && i+1 < n && isLetter(line[i+1]):
			j := i + 1
			for j < n && isLetter(line[j]) {
				j++
			}
			if j >= n || line[j] != '.' {
				return nil, fmt.Errorf("line %d: malformed dot-operator at %q", lineNo, line[i:])
			}
			op := upper(line[i : j+1])
			switch op {
			case ".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.", ".AND.", ".OR.", ".NOT.", ".TRUE.", ".FALSE.":
				toks = append(toks, token{kind: tokDotOp, text: op, line: lineNo})
			default:
				return nil, fmt.Errorf("line %d: unknown operator %s", lineNo, op)
			}
			i = j + 1
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(line[i+1])):
			j := i
			isReal := false
			for j < n && isDigit(line[j]) {
				j++
			}
			if j < n && line[j] == '.' && (j+1 >= n || !isLetter(line[j+1])) {
				isReal = true
				j++
				for j < n && isDigit(line[j]) {
					j++
				}
			}
			if j < n && (line[j] == 'E' || line[j] == 'e') {
				k := j + 1
				if k < n && (line[k] == '+' || line[k] == '-') {
					k++
				}
				if k < n && isDigit(line[k]) {
					isReal = true
					j = k
					for j < n && isDigit(line[j]) {
						j++
					}
				}
			}
			text := line[i:j]
			if isReal {
				v, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad real %q: %v", lineNo, text, err)
				}
				toks = append(toks, token{kind: tokReal, text: text, num: math.Float64bits(v), line: lineNo})
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad integer %q: %v", lineNo, text, err)
				}
				toks = append(toks, token{kind: tokInt, text: text, num: uint64(v), line: lineNo})
			}
			i = j
		case isLetter(c) || c == '_':
			j := i
			for j < n && (isLetter(line[j]) || isDigit(line[j]) || line[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: upper(line[i:j]), line: lineNo})
			i = j
		case strings.IndexByte("(),=+-*/", c) >= 0:
			toks = append(toks, token{kind: tokSymbol, text: line[i : i+1], line: lineNo})
			i++
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", lineNo, string(c))
		}
	}
	return toks, nil
}

// keywords holds every word the parser and the checker match, dot-operators
// included, keyed by itself: a keyword spelled in mixed case (Barrier, End,
// .eq.) upper-cases to the table's string rather than to a new one.
var keywords = func() map[string]string {
	words := []string{
		"FORCE", "OF", "IDENT", "END", "DECLARATIONS", "JOIN", "FORCESUB", "ENDSUB",
		"SHARED", "PRIVATE", "ASYNC", "INTEGER", "REAL", "LOGICAL",
		"IF", "THEN", "ELSE", "DO", "WHILE", "PRESCHED", "SELFSCHED", "ALSO",
		"BARRIER", "CRITICAL", "ASKFOR", "PUT", "PCASE", "USECT", "CSECT",
		"PRODUCE", "CONSUME", "COPY", "INTO", "VOID", "PRINT", "CALL",
		".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.", ".AND.", ".OR.", ".NOT.", ".TRUE.", ".FALSE.",
	}
	for _, op := range GOps() {
		words = append(words, op.String())
	}
	words = append(words, Intrinsics()...)
	m := make(map[string]string, len(words))
	for _, w := range words {
		m[w] = w
	}
	return m
}()

// maxKeyword is the length of the longest word in keywords.
const maxKeyword = len("DECLARATIONS")

// upper returns the upper case of an identifier or dot-operator.  A word
// with no lower-case letter is its own upper case and a keyword is the
// table's, so only a mixed-case user name allocates.
func upper(s string) string {
	if len(s) <= maxKeyword {
		var buf [maxKeyword]byte
		lower := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
				lower = true
			}
			buf[i] = c
		}
		if !lower {
			return s
		}
		if w, ok := keywords[string(buf[:len(s)])]; ok {
			return w
		}
	}
	return strings.ToUpper(s)
}

func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
