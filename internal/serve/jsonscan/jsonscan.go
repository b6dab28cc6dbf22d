// Package jsonscan checks JSON text without decoding it, with
// encoding/json's verdict: Valid answers as json.Valid does, and Value and
// Number find where a value or a number ends. A boot runs every event
// line of the log through Valid (tracestore.ReadAll) and finds the raw
// fields and the numbers of a record line with Value and Number
// (journal.Decoder); the tests hold them to encoding/json.
//
// encoding/json's scanner makes a function call per byte. Here each kind
// of token is one loop, a string — most of a log line — is a pass over a
// table, and nothing is allocated for text nested less than 64 deep.
package jsonscan

// maxDepth is encoding/json's nesting limit: text that nests arrays and
// objects deeper than this is not valid.
const maxDepth = 10000

// Valid reports whether data is one JSON value, with nothing but
// whitespace around it: json.Valid's answer.
func Valid(data []byte) bool {
	i := skipSpace(data, 0)
	n := Value(data[i:], 0)
	return n >= 0 && skipSpace(data, i+n) == len(data)
}

// Value returns the length of the JSON value data starts with, or -1 if
// it starts with none (whitespace before the value is none). depth is how
// many arrays and objects enclose the value, which counts toward the
// nesting limit.
func Value(data []byte, depth int) int {
	var buf [64]byte
	open := buf[:0] // the containers the scan is inside, innermost last: '[' or '{'
	i := 0
	for {
		// A value starts at i.
		if i < 0 || i >= len(data) {
			return -1
		}
		switch c := data[i]; c {
		case '"':
			i = stringEnd(data, i+1)
		case '{', '[':
			if depth+len(open) >= maxDepth {
				return -1
			}
			i = skipSpace(data, i+1)
			if i < len(data) && data[i] == c+2 { // '}' or ']'
				i++
				break
			}
			open = append(open, c)
			if c == '{' {
				i = member(data, i)
			}
			continue
		case 't':
			i = literalEnd(data, i, "true")
		case 'f':
			i = literalEnd(data, i, "false")
		case 'n':
			i = literalEnd(data, i, "null")
		default:
			i = numberEnd(data, i)
		}
		// A value ends at i: it ends the containers a bracket closes, or
		// a comma starts the next value.
		for {
			if i < 0 || len(open) == 0 {
				return i
			}
			i = skipSpace(data, i)
			if i >= len(data) {
				return -1
			}
			inner := open[len(open)-1]
			if data[i] == ',' {
				i = skipSpace(data, i+1)
				if inner == '{' {
					i = member(data, i)
				}
				break
			}
			if data[i] != inner+2 {
				return -1
			}
			open = open[:len(open)-1]
			i++
		}
	}
}

// member reads an object member's key, its colon and the whitespace up to
// its value from i, and returns where the value starts, -1 if that is not
// what follows.
func member(data []byte, i int) int {
	if i >= len(data) || data[i] != '"' {
		return -1
	}
	if i = skipSpace(data, stringEnd(data, i+1)); i < 0 || i >= len(data) || data[i] != ':' {
		return -1
	}
	return skipSpace(data, i+1)
}

// stringEnd returns the index past the closing quote of the string whose
// contents start at i, -1 if no string ends there. The contents need not
// be UTF-8: encoding/json accepts any byte but the quote, the backslash
// and the control characters, and decodes a bad one as U+FFFD.
func stringEnd(data []byte, i int) int {
	for {
		// Four bytes a step while they last: a third faster on a log's
		// lines than one.
		for i+4 <= len(data) && plain[data[i]] && plain[data[i+1]] && plain[data[i+2]] && plain[data[i+3]] {
			i += 4
		}
		for i < len(data) && plain[data[i]] {
			i++
		}
		if i < len(data) && data[i] == '"' {
			return i + 1
		}
		if i = escapeEnd(data, i); i < 0 {
			return -1
		}
	}
}

// escapeEnd returns the index past the escape sequence at i, -1 if there
// is none.
func escapeEnd(data []byte, i int) int {
	if i+1 >= len(data) || data[i] != '\\' {
		return -1
	}
	switch data[i+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return i + 2
	case 'u':
		if len(data) < i+6 || !hex[data[i+2]] || !hex[data[i+3]] || !hex[data[i+4]] || !hex[data[i+5]] {
			return -1
		}
		return i + 6
	}
	return -1
}

// Number returns the length of the JSON number data starts with, -1 if
// it starts with none.
func Number(data []byte) int { return numberEnd(data, 0) }

// numberEnd returns the index past the number at i, -1 if none starts
// there: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func numberEnd(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = digits(data, i+1); data[i-1] == '.' {
			return -1
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		start := i
		if i = digits(data, i); i == start {
			return -1
		}
	}
	return i
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// literalEnd returns the index past word if data holds it at i, else -1.
func literalEnd(data []byte, i int, word string) int {
	if len(data)-i < len(word) || string(data[i:i+len(word)]) != word {
		return -1
	}
	return i + len(word)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i >= 0 && i < len(data) && space[data[i]] {
		i++
	}
	return i
}

// space marks JSON's whitespace.
var space = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// plain marks the bytes a string holds as they are: all but the quote,
// the backslash and the control characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex marks the hexadecimal digits.
var hex = func() (t [256]bool) {
	for _, c := range "0123456789abcdefABCDEF" {
		t[c] = true
	}
	return t
}()
