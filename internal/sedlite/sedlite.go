// Package sedlite is a small stream editor: the first of the two
// preprocessor passes in the Force compilation pipeline (paper §4.3: "The
// stream editor sed translates the Force syntax into parameterized
// function macros").
//
// A Script is an ordered list of substitute commands applied to every
// input line:
//
//	s<del>pattern<del>replacement<del>[i]
//
// where <del> is any punctuation delimiter (conventionally /).  Patterns
// are Go regular expressions; replacements use sed-style \1..\9 group
// references (translated internally to Go's ${n}), and a $ in them is
// literal.  Each command replaces the first match; the one flag, i, makes
// the match case-insensitive.  Lines starting with # in a script source
// are comments.
//
// The subset is exactly what the Force rules (internal/maclib) use: no d
// command, no g flag and no & for the whole match.  Deviations from POSIX
// sed are documented on Parse.
package sedlite

import (
	"fmt"
	"regexp"
	"strings"
)

// Command is one compiled substitute command.
type Command struct {
	pattern *regexp.Regexp
	replace string
}

// Script is a compiled, ordered command list.
type Script struct {
	cmds []Command
}

// Parse compiles a script: one command per line, blank lines and #-comment
// lines ignored.  Unlike POSIX sed there are no addresses, hold space, or
// multi-line commands; those features are not used by the Force rules.
func Parse(src string) (*Script, error) {
	s := &Script{}
	for ln, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		cmd, err := parseSubst(trimmed)
		if err != nil {
			return nil, fmt.Errorf("sedlite: line %d: %w", ln+1, err)
		}
		s.cmds = append(s.cmds, cmd)
	}
	return s, nil
}

// MustParse is Parse panicking on error, for compiled-in rule sets.
func MustParse(src string) *Script {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// splitFields splits body into fields separated by unescaped occurrences
// of del; an escaped delimiter (\<del>) becomes a literal delimiter.
func splitFields(body string, del byte) []string {
	var fields []string
	var cur strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' && i+1 < len(body) && body[i+1] == del {
			cur.WriteByte(del)
			i++
			continue
		}
		if c == del {
			fields = append(fields, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteByte(c)
	}
	fields = append(fields, cur.String())
	return fields
}

func parseSubst(line string) (Command, error) {
	if len(line) < 2 || line[0] != 's' || !strings.ContainsRune("/|#!,;:%", rune(line[1])) {
		return Command{}, fmt.Errorf("unrecognized command %q", line)
	}
	del := line[1]
	fields := splitFields(line[2:], del)
	if len(fields) != 3 {
		return Command{}, fmt.Errorf("substitute needs s%cpat%crepl%c[flags], got %q", del, del, del, line)
	}
	pat, repl, flags := fields[0], fields[1], fields[2]
	for _, f := range flags {
		if f != 'i' {
			return Command{}, fmt.Errorf("unknown flag %q in %q", string(f), line)
		}
		pat = "(?i)" + pat
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return Command{}, fmt.Errorf("pattern %q: %w", pat, err)
	}
	return Command{pattern: re, replace: translateReplacement(repl)}, nil
}

// translateReplacement converts sed-style \1..\9 references to Go's ${n}
// and protects literal $ from Go's expander.
func translateReplacement(repl string) string {
	var out strings.Builder
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		switch {
		case c == '\\' && i+1 < len(repl) && repl[i+1] >= '1' && repl[i+1] <= '9':
			fmt.Fprintf(&out, "${%c}", repl[i+1])
			i++
		case c == '\\' && i+1 < len(repl) && repl[i+1] == '\\':
			out.WriteByte('\\')
			i++
		case c == '$':
			out.WriteString("$$")
		default:
			out.WriteByte(c)
		}
	}
	return out.String()
}

// ApplyLine runs the script over one line.
func (s *Script) ApplyLine(line string) string {
	for _, c := range s.cmds {
		if loc := c.pattern.FindStringSubmatchIndex(line); loc != nil {
			buf := make([]byte, 0, len(line))
			buf = append(buf, line[:loc[0]]...)
			buf = c.pattern.ExpandString(buf, c.replace, line, loc)
			buf = append(buf, line[loc[1]:]...)
			line = string(buf)
		}
	}
	return line
}

// Apply runs the script over a whole text, line by line, preserving the
// trailing-newline shape of the input.
func (s *Script) Apply(text string) string {
	var out strings.Builder
	lines := strings.Split(text, "\n")
	trailingNewline := strings.HasSuffix(text, "\n")
	if trailingNewline {
		lines = lines[:len(lines)-1]
	}
	for _, line := range lines {
		out.WriteString(s.ApplyLine(line))
		out.WriteByte('\n')
	}
	result := out.String()
	if !trailingNewline {
		result = strings.TrimSuffix(result, "\n")
	}
	return result
}
