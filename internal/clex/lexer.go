// Package clex lexes the C subset. It includes a light preprocessing pass:
// // and /* */ comments are stripped, object-like #define macros are
// expanded, and #include lines are ignored (the interpreter provides the
// needed library functions as builtins).
package clex

import (
	"fmt"
	"strings"

	"staticest/internal/ctoken"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns C source text into tokens.
type Lexer struct {
	src    []byte
	file   string
	off    int
	line   int
	col    int
	macros map[string][]ctoken.Token // object-like #define expansions
	// pending holds tokens produced by macro expansion, consumed before
	// further scanning.
	pending []ctoken.Token
	err     error
}

// New creates a Lexer for src. The file name is used in positions.
func New(file string, src []byte) *Lexer {
	return &Lexer{
		src:    src,
		file:   file,
		line:   1,
		col:    1,
		macros: make(map[string][]ctoken.Token),
	}
}

// minBytesPerToken bounds the source bytes per token from below on the
// inputs measured: 2.7–4.1 on the suite programs, 2.25–3.05 on 2000
// internal/gen programs, and 2.0–2.2 on the if-chain and nesting
// benchmark programs. Tokenize presizes its slice from it, so the
// stream is allocated once; grown by append from empty, its
// reallocations added up to three to five times its final size.
const minBytesPerToken = 2

// Tokenize scans the entire input and returns the token stream, ending
// with an EOF token.
func Tokenize(file string, src []byte) ([]ctoken.Token, error) {
	lx := New(file, src)
	toks := make([]ctoken.Token, 0, len(src)/minBytesPerToken+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == ctoken.EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) pos() ctoken.Pos {
	return ctoken.Pos{File: lx.file, Line: lx.line, Col: lx.col}
}

func (lx *Lexer) errorf(pos ctoken.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekByte2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// skipSpaceAndComments consumes whitespace and comments. It reports
// whether a newline was crossed (needed for directive handling).
func (lx *Lexer) skipSpaceAndComments() (sawNewline bool, err error) {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			lx.advance()
		case c == '\n':
			sawNewline = true
			lx.advance()
		case c == '\\' && lx.peekByte2() == '\n':
			lx.advance()
			lx.advance()
		case c == '/' && lx.peekByte2() == '/':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekByte2() == '*':
			pos := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekByte2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				if lx.peekByte() == '\n' {
					sawNewline = true
				}
				lx.advance()
			}
			if !closed {
				return sawNewline, lx.errorf(pos, "unterminated block comment")
			}
		default:
			return sawNewline, nil
		}
	}
	return sawNewline, nil
}

// Next returns the next token, expanding macros and processing directives.
func (lx *Lexer) Next() (ctoken.Token, error) {
	if len(lx.pending) > 0 {
		t := lx.pending[0]
		lx.pending = lx.pending[1:]
		return t, nil
	}
	for {
		if _, err := lx.skipSpaceAndComments(); err != nil {
			return ctoken.Token{}, err
		}
		if lx.off >= len(lx.src) {
			return ctoken.Token{Kind: ctoken.EOF, Pos: lx.pos()}, nil
		}
		if lx.peekByte() == '#' && lx.col == 1 {
			if err := lx.directive(); err != nil {
				return ctoken.Token{}, err
			}
			continue
		}
		tok, err := lx.scanToken()
		if err != nil {
			return ctoken.Token{}, err
		}
		if tok.Kind == ctoken.Ident {
			if exp, ok := lx.macros[tok.Text]; ok {
				// Object-like macro expansion (no recursion on the same
				// name is possible because stored bodies were expanded at
				// definition time for already-known macros only; direct
				// self-reference is rejected in directive()).
				reloc := make([]ctoken.Token, len(exp))
				for i, t := range exp {
					t.Pos = tok.Pos
					reloc[i] = t
				}
				if len(reloc) == 0 {
					continue
				}
				lx.pending = append(lx.pending, reloc[1:]...)
				return reloc[0], nil
			}
		}
		return tok, nil
	}
}

// directive handles a line starting with '#'. Supported: #define NAME
// tokens... (object-like), #undef NAME, and #include (ignored). Other
// directives are errors, keeping the subset honest.
func (lx *Lexer) directive() error {
	pos := lx.pos()
	lx.advance() // '#'
	name, err := lx.directiveWord()
	if err != nil {
		return err
	}
	switch name {
	case "include":
		lx.skipToEOL()
		return nil
	case "undef":
		word, err := lx.directiveWord()
		if err != nil {
			return err
		}
		delete(lx.macros, word)
		lx.skipToEOL()
		return nil
	case "define":
		macro, err := lx.directiveWord()
		if err != nil {
			return err
		}
		if lx.peekByte() == '(' {
			return lx.errorf(pos, "function-like macro %q not supported", macro)
		}
		var body []ctoken.Token
		for {
			eol, err := lx.skipSpaceInLine()
			if err != nil {
				return err
			}
			if eol || lx.off >= len(lx.src) {
				break
			}
			t, err := lx.scanToken()
			if err != nil {
				return err
			}
			if t.Kind == ctoken.Ident {
				if t.Text == macro {
					return lx.errorf(pos, "macro %q references itself", macro)
				}
				if exp, ok := lx.macros[t.Text]; ok {
					body = append(body, exp...)
					continue
				}
			}
			body = append(body, t)
		}
		lx.macros[macro] = body
		return nil
	default:
		return lx.errorf(pos, "unsupported preprocessor directive #%s", name)
	}
}

// skipSpaceInLine consumes spaces, tabs and line continuations without
// crossing a newline; reports whether end-of-line was reached.
func (lx *Lexer) skipSpaceInLine() (bool, error) {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance()
		case c == '\\' && lx.peekByte2() == '\n':
			lx.advance()
			lx.advance()
		case c == '/' && lx.peekByte2() == '*':
			if _, err := lx.skipSpaceAndComments(); err != nil {
				return false, err
			}
		case c == '\n':
			return true, nil
		default:
			return false, nil
		}
	}
	return true, nil
}

func (lx *Lexer) skipToEOL() {
	for lx.off < len(lx.src) && lx.peekByte() != '\n' {
		lx.advance()
	}
}

func (lx *Lexer) directiveWord() (string, error) {
	if _, err := lx.skipSpaceInLine(); err != nil {
		return "", err
	}
	start := lx.off
	for lx.off < len(lx.src) && isIdentByte(lx.peekByte()) {
		lx.advance()
	}
	if lx.off == start {
		return "", lx.errorf(lx.pos(), "expected identifier in preprocessor directive")
	}
	return string(lx.src[start:lx.off]), nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentByte(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanToken scans a single raw token (no macro expansion, no directives).
func (lx *Lexer) scanToken() (ctoken.Token, error) {
	pos := lx.pos()
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentByte(lx.peekByte()) {
			lx.advance()
		}
		text := string(lx.src[start:lx.off])
		if kw, ok := ctoken.Keywords[text]; ok {
			return ctoken.Token{Kind: kw, Text: text, Pos: pos}, nil
		}
		return ctoken.Token{Kind: ctoken.Ident, Text: text, Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekByte2())):
		return lx.scanNumber(pos)
	case c == '\'':
		return lx.scanChar(pos)
	case c == '"':
		return lx.scanString(pos)
	default:
		return lx.scanOperator(pos)
	}
}

func (lx *Lexer) scanNumber(pos ctoken.Pos) (ctoken.Token, error) {
	start := lx.off
	isFloat := false
	if lx.peekByte() == '0' && (lx.peekByte2() == 'x' || lx.peekByte2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peekByte()) {
			lx.advance()
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		if lx.peekByte() == '.' {
			isFloat = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
				lx.advance()
			}
		}
		if e := lx.peekByte(); e == 'e' || e == 'E' {
			next := lx.peekByte2()
			if isDigit(next) || next == '+' || next == '-' {
				isFloat = true
				lx.advance() // e
				if b := lx.peekByte(); b == '+' || b == '-' {
					lx.advance()
				}
				for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
					lx.advance()
				}
			}
		}
	}
	text := string(lx.src[start:lx.off])
	// Suffixes.
	unsigned := false
	long := false
	for {
		switch lx.peekByte() {
		case 'u', 'U':
			unsigned = true
			lx.advance()
			continue
		case 'l', 'L':
			long = true
			lx.advance()
			continue
		case 'f', 'F':
			if isFloat {
				lx.advance()
				continue
			}
		}
		break
	}
	if isFloat {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return ctoken.Token{}, lx.errorf(pos, "invalid float literal %q", text)
		}
		return ctoken.Token{Kind: ctoken.FloatLit, Text: text, Pos: pos, FloatVal: f}, nil
	}
	v, uns, err := parseIntLiteral(text)
	if err != nil {
		return ctoken.Token{}, lx.errorf(pos, "invalid integer literal %q: %v", text, err)
	}
	return ctoken.Token{
		Kind: ctoken.IntLit, Text: text, Pos: pos,
		IntVal: v, Unsigned: unsigned || uns, Long: long,
	}, nil
}

func parseIntLiteral(text string) (val uint64, unsigned bool, err error) {
	base := 10
	s := text
	switch {
	case strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X"):
		base = 16
		s = text[2:]
	case len(text) > 1 && text[0] == '0':
		base = 8
		s = text[1:]
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := digitVal(s[i])
		if d < 0 || d >= base {
			return 0, false, fmt.Errorf("bad digit %q", s[i])
		}
		nv := v*uint64(base) + uint64(d)
		if nv < v {
			return 0, false, fmt.Errorf("overflow")
		}
		v = nv
	}
	return v, v > 1<<63-1, nil
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

func (lx *Lexer) scanEscape(pos ctoken.Pos) (byte, error) {
	lx.advance() // backslash
	if lx.off >= len(lx.src) {
		return 0, lx.errorf(pos, "unterminated escape sequence")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := int(c - '0')
		for i := 0; i < 2 && lx.off < len(lx.src); i++ {
			d := lx.peekByte()
			if d < '0' || d > '7' {
				break
			}
			v = v*8 + int(d-'0')
			lx.advance()
		}
		return byte(v), nil
	case 'x':
		v := 0
		n := 0
		for lx.off < len(lx.src) && isHexDigit(lx.peekByte()) {
			v = v*16 + digitVal(lx.peekByte())
			lx.advance()
			n++
		}
		if n == 0 {
			return 0, lx.errorf(pos, "\\x with no hex digits")
		}
		return byte(v), nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	case 'a':
		return 7, nil
	case 'b':
		return 8, nil
	case 'f':
		return 12, nil
	case 'v':
		return 11, nil
	case '?':
		return '?', nil
	default:
		return 0, lx.errorf(pos, "unknown escape sequence \\%c", c)
	}
}

func (lx *Lexer) scanChar(pos ctoken.Pos) (ctoken.Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return ctoken.Token{}, lx.errorf(pos, "unterminated character literal")
	}
	var v byte
	if lx.peekByte() == '\\' {
		b, err := lx.scanEscape(pos)
		if err != nil {
			return ctoken.Token{}, err
		}
		v = b
	} else {
		v = lx.advance()
	}
	if lx.off >= len(lx.src) || lx.peekByte() != '\'' {
		return ctoken.Token{}, lx.errorf(pos, "unterminated character literal")
	}
	lx.advance()
	return ctoken.Token{Kind: ctoken.CharLit, Text: string(v), Pos: pos, IntVal: uint64(v)}, nil
}

func (lx *Lexer) scanString(pos ctoken.Pos) (ctoken.Token, error) {
	var buf []byte
	for {
		lx.advance() // opening quote
		for {
			if lx.off >= len(lx.src) {
				return ctoken.Token{}, lx.errorf(pos, "unterminated string literal")
			}
			c := lx.peekByte()
			if c == '"' {
				lx.advance()
				break
			}
			if c == '\n' {
				return ctoken.Token{}, lx.errorf(pos, "newline in string literal")
			}
			if c == '\\' {
				b, err := lx.scanEscape(pos)
				if err != nil {
					return ctoken.Token{}, err
				}
				buf = append(buf, b)
				continue
			}
			buf = append(buf, lx.advance())
		}
		// Adjacent string literals concatenate.
		save := *lx
		if _, err := lx.skipSpaceAndComments(); err != nil {
			return ctoken.Token{}, err
		}
		if lx.off < len(lx.src) && lx.peekByte() == '"' {
			continue
		}
		*lx = save
		return ctoken.Token{Kind: ctoken.StrLit, Pos: pos, StrVal: buf, Text: string(buf)}, nil
	}
}

func (lx *Lexer) scanOperator(pos ctoken.Pos) (ctoken.Token, error) {
	mk := func(k ctoken.Kind, n int) (ctoken.Token, error) {
		for i := 0; i < n; i++ {
			lx.advance()
		}
		return ctoken.Token{Kind: k, Pos: pos}, nil
	}
	c := lx.peekByte()
	d := lx.peekByte2()
	var e byte
	if lx.off+2 < len(lx.src) {
		e = lx.src[lx.off+2]
	}
	switch c {
	case '(':
		return mk(ctoken.LParen, 1)
	case ')':
		return mk(ctoken.RParen, 1)
	case '{':
		return mk(ctoken.LBrace, 1)
	case '}':
		return mk(ctoken.RBrace, 1)
	case '[':
		return mk(ctoken.LBrack, 1)
	case ']':
		return mk(ctoken.RBrack, 1)
	case ';':
		return mk(ctoken.Semi, 1)
	case ',':
		return mk(ctoken.Comma, 1)
	case ':':
		return mk(ctoken.Colon, 1)
	case '?':
		return mk(ctoken.Question, 1)
	case '~':
		return mk(ctoken.Tilde, 1)
	case '.':
		if d == '.' && e == '.' {
			return mk(ctoken.Ellipsis, 3)
		}
		return mk(ctoken.Dot, 1)
	case '+':
		switch d {
		case '+':
			return mk(ctoken.Inc, 2)
		case '=':
			return mk(ctoken.AddAssign, 2)
		}
		return mk(ctoken.Plus, 1)
	case '-':
		switch d {
		case '-':
			return mk(ctoken.Dec, 2)
		case '=':
			return mk(ctoken.SubAssign, 2)
		case '>':
			return mk(ctoken.Arrow, 2)
		}
		return mk(ctoken.Minus, 1)
	case '*':
		if d == '=' {
			return mk(ctoken.MulAssign, 2)
		}
		return mk(ctoken.Star, 1)
	case '/':
		if d == '=' {
			return mk(ctoken.DivAssign, 2)
		}
		return mk(ctoken.Slash, 1)
	case '%':
		if d == '=' {
			return mk(ctoken.RemAssign, 2)
		}
		return mk(ctoken.Percent, 1)
	case '&':
		switch d {
		case '&':
			return mk(ctoken.AndAnd, 2)
		case '=':
			return mk(ctoken.AndAssign, 2)
		}
		return mk(ctoken.Amp, 1)
	case '|':
		switch d {
		case '|':
			return mk(ctoken.OrOr, 2)
		case '=':
			return mk(ctoken.OrAssign, 2)
		}
		return mk(ctoken.Pipe, 1)
	case '^':
		if d == '=' {
			return mk(ctoken.XorAssign, 2)
		}
		return mk(ctoken.Caret, 1)
	case '!':
		if d == '=' {
			return mk(ctoken.NotEq, 2)
		}
		return mk(ctoken.Not, 1)
	case '=':
		if d == '=' {
			return mk(ctoken.EqEq, 2)
		}
		return mk(ctoken.Assign, 1)
	case '<':
		switch d {
		case '<':
			if e == '=' {
				return mk(ctoken.ShlAssign, 3)
			}
			return mk(ctoken.Shl, 2)
		case '=':
			return mk(ctoken.Le, 2)
		}
		return mk(ctoken.Lt, 1)
	case '>':
		switch d {
		case '>':
			if e == '=' {
				return mk(ctoken.ShrAssign, 3)
			}
			return mk(ctoken.Shr, 2)
		case '=':
			return mk(ctoken.Ge, 2)
		}
		return mk(ctoken.Gt, 1)
	}
	return ctoken.Token{}, lx.errorf(pos, "unexpected character %q", c)
}
