// Package m4lite is a macro processor in the style of Unix m4: the second
// of the two preprocessor passes in the Force compilation pipeline (paper
// §4.3: "the macro processor m4 replaces the function macros with Fortran
// code and the language extensions supporting parallel programming").
//
// Supported semantics, matching m4 where the Force macro layers
// (internal/maclib) rely on it, and nothing the layers do not use:
//
//   - user macros via define(name, body) with $0-$9 parameter
//     substitution, expanded with rescanning (expansion text is pushed
//     back onto the input);
//   - bare user-macro names expand with zero arguments; argument-taking
//     builtins are recognized only when immediately followed by ( (GNU m4
//     behaviour, so that prose containing "define" survives); a call's
//     arguments are themselves expanded during collection, with leading
//     unquoted whitespace of each argument skipped;
//   - quoting with ` and ': quoted text is copied with one quote level
//     stripped and is not expanded;
//   - # comments are copied through verbatim to end of line;
//   - builtins: define, ifelse (chained), incr, dnl.
//
// Omissions relative to real m4: the builtins undefine, ifdef, eval,
// decr, len, index, substr, shift and changequote; the $#, $* and $@
// parameters; diversions, include, translit, defn and patsubst.  A name
// m4lite does not know passes through as text.
package m4lite

import (
	"fmt"
	"strconv"
	"strings"
)

const (
	lquote = '`'
	rquote = '\''
)

// The runaway guards turn unbounded recursion into an error instead of a
// hang.  maxOps bounds the macro calls of one Expand and maxInput the
// rescanned input.  maxWork bounds the scan steps plus the runes pushed
// back, so a call whose argument grows at each level (count(nope($1)))
// stops in a fraction of a second rather than after 20 000 ever longer
// rescans.  The largest single Expand over every shipped program under
// every machine layer does 17 452 units of that work, 1/240 of maxWork.
const (
	maxOps   = 20000
	maxInput = 1 << 22
	maxWork  = 1 << 22
)

// Processor holds macro definitions.  A zero Processor is not usable;
// call NewProcessor.
type Processor struct {
	user map[string]string
}

// scanState is the input still to be scanned, in[i:].  Pushed-back text
// is written into the consumed prefix in[:i] when it fits, so a
// pushback costs the runes pushed, not a copy of the rest of the input.
type scanState struct {
	in   []rune
	i    int
	ops  int
	work int
}

type builtin func(p *Processor, st *scanState, args []string) (string, error)

var builtins = map[string]builtin{
	"define": biDefine,
	"ifelse": biIfelse,
	"incr":   biIncr,
	"dnl":    biDnl,
}

// NewProcessor creates a processor with the builtins and no user macros.
func NewProcessor() *Processor {
	return &Processor{user: make(map[string]string)}
}

// Defined reports whether name is a user macro or a builtin.
func (p *Processor) Defined(name string) bool {
	if _, ok := p.user[name]; ok {
		return true
	}
	_, ok := builtins[name]
	return ok
}

// Load expands a macro-definition file for its side effects, requiring
// that it produce only whitespace (the Force macro layers end every
// definition with dnl); any other output is reported as an error, which
// catches malformed layer files early.
func (p *Processor) Load(src string) error {
	out, err := p.Expand(src)
	if err != nil {
		return err
	}
	if strings.TrimSpace(out) != "" {
		return fmt.Errorf("m4lite: macro file produced non-whitespace output %q", firstLine(out))
	}
	return nil
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return s
}

// Expand processes input and returns the expanded text.
func (p *Processor) Expand(input string) (string, error) {
	st := &scanState{in: []rune(input)}
	var out strings.Builder

	// Call-frame stack for argument collection.
	type frame struct {
		name   string
		args   []string
		cur    strings.Builder
		depth  int // unquoted paren nesting inside the current argument
		skipWS bool
	}
	var stack []*frame

	emit := func(s string) {
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.skipWS {
				s = strings.TrimLeft(s, " \t\n")
				if s == "" {
					return
				}
				top.skipWS = false
			}
			top.cur.WriteString(s)
			return
		}
		out.WriteString(s)
	}
	pushback := func(s string) {
		r := []rune(s)
		st.work += len(r)
		if len(r) > st.i {
			// No room in the consumed prefix: move the rest up behind
			// as much free space again as the two take.
			rest := st.in[st.i:]
			room := 2*len(r) + len(rest)
			grown := make([]rune, room+len(rest))
			copy(grown[room:], rest)
			st.in, st.i = grown, room
		}
		st.i -= len(r)
		copy(st.in[st.i:], r)
	}
	// invoke runs a macro (name already recognized) with args.
	invoke := func(name string, args []string) error {
		st.ops++
		if st.ops > maxOps || len(st.in)-st.i > maxInput || st.work > maxWork {
			return fmt.Errorf("m4lite: expansion limit exceeded (recursive macro %q?)", name)
		}
		if body, ok := p.user[name]; ok {
			pushback(substitute(name, body, args))
			return nil
		}
		res, err := builtins[name](p, st, args)
		if err != nil {
			return err
		}
		pushback(res)
		return nil
	}

	for st.i < len(st.in) {
		st.work++
		c := st.in[st.i]
		switch {
		case c == lquote:
			text, err := scanQuoted(st)
			if err != nil {
				return "", err
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.skipWS = false
			}
			emit(text)

		case c == '#':
			// Comment: copied verbatim through end of line.
			j := st.i
			for j < len(st.in) && st.in[j] != '\n' {
				j++
			}
			if j < len(st.in) {
				j++ // include the newline
			}
			emit(string(st.in[st.i:j]))
			st.i = j

		case isNameStart(c):
			j := st.i + 1
			for j < len(st.in) && isNameRune(st.in[j]) {
				j++
			}
			name := string(st.in[st.i:j])
			if !p.Defined(name) {
				emit(name)
				st.i = j
				continue
			}
			// GNU m4 semantics: argument-taking builtins are only
			// recognized when immediately followed by ( — a bare
			// "index" or "define" in program text passes through.
			// User macros and dnl expand bare.
			if _, isUser := p.user[name]; !isUser && name != "dnl" {
				if j >= len(st.in) || st.in[j] != '(' {
					emit(name)
					st.i = j
					continue
				}
			}
			st.i = j
			if st.i < len(st.in) && st.in[st.i] == '(' {
				// Open a call frame and collect arguments.
				st.i++
				stack = append(stack, &frame{name: name, skipWS: true})
				continue
			}
			// Bare macro: expand with zero arguments.
			if err := invoke(name, nil); err != nil {
				return "", err
			}

		case len(stack) > 0 && c == ',' && stack[len(stack)-1].depth == 0:
			top := stack[len(stack)-1]
			top.args = append(top.args, top.cur.String())
			top.cur.Reset()
			top.skipWS = true
			st.i++

		case len(stack) > 0 && c == ')' && stack[len(stack)-1].depth == 0:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			args := append(top.args, top.cur.String())
			// A call with genuinely no arguments: name() yields one
			// empty argument in m4; keep that behaviour.
			st.i++
			if err := invoke(top.name, args); err != nil {
				return "", err
			}

		case len(stack) > 0 && c == '(':
			stack[len(stack)-1].depth++
			emit("(")
			st.i++

		case len(stack) > 0 && c == ')':
			stack[len(stack)-1].depth--
			emit(")")
			st.i++

		default:
			emit(string(c))
			st.i++
		}
	}
	if len(stack) > 0 {
		return "", fmt.Errorf("m4lite: unterminated call of %q", stack[len(stack)-1].name)
	}
	return out.String(), nil
}

// scanQuoted consumes a quoted string starting at the left quote and
// returns its contents with one quote level stripped.
func scanQuoted(st *scanState) (string, error) {
	depth := 1
	var sb strings.Builder
	j := st.i + 1
	for j < len(st.in) {
		switch st.in[j] {
		case lquote:
			depth++
		case rquote:
			depth--
			if depth == 0 {
				st.i = j + 1
				return sb.String(), nil
			}
		}
		sb.WriteRune(st.in[j])
		j++
	}
	return "", fmt.Errorf("m4lite: unterminated quote")
}

// substitute expands the $0-$9 parameters in a user macro body.
func substitute(name, body string, args []string) string {
	var out strings.Builder
	r := []rune(body)
	for i := 0; i < len(r); i++ {
		if r[i] != '$' || i+1 >= len(r) || r[i+1] < '0' || r[i+1] > '9' {
			out.WriteRune(r[i])
			continue
		}
		i++
		if n := int(r[i] - '0'); n == 0 {
			out.WriteString(name)
		} else if n <= len(args) {
			out.WriteString(args[n-1])
		}
	}
	return out.String()
}

func isNameStart(c rune) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameRune(c rune) bool {
	return isNameStart(c) || (c >= '0' && c <= '9')
}

func arg(args []string, n int) string {
	if n < len(args) {
		return args[n]
	}
	return ""
}

func biDefine(p *Processor, _ *scanState, args []string) (string, error) {
	name := arg(args, 0)
	if name == "" {
		return "", fmt.Errorf("m4lite: define with empty name")
	}
	if !isValidName(name) {
		return "", fmt.Errorf("m4lite: define of invalid name %q", name)
	}
	p.user[name] = arg(args, 1)
	return "", nil
}

func isValidName(s string) bool {
	for i, c := range s {
		if i == 0 && !isNameStart(c) {
			return false
		}
		if i > 0 && !isNameRune(c) {
			return false
		}
	}
	return s != ""
}

func biIfelse(_ *Processor, _ *scanState, args []string) (string, error) {
	for {
		switch {
		case len(args) <= 1:
			return "", nil
		case len(args) == 2:
			return "", nil
		case arg(args, 0) == arg(args, 1):
			return arg(args, 2), nil
		case len(args) == 4:
			return arg(args, 3), nil
		default:
			args = args[3:]
		}
	}
}

func biIncr(_ *Processor, _ *scanState, args []string) (string, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(arg(args, 0)), 10, 64)
	if err != nil {
		return "", fmt.Errorf("m4lite: incr: %w", err)
	}
	return strconv.FormatInt(v+1, 10), nil
}

// biDnl deletes input through the next newline, inclusive.
func biDnl(_ *Processor, st *scanState, _ []string) (string, error) {
	for st.i < len(st.in) {
		if st.in[st.i] == '\n' {
			st.i++
			break
		}
		st.i++
	}
	return "", nil
}
