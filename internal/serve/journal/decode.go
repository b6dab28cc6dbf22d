package journal

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"enhancedbhpo/internal/serve/jsonscan"
)

// recordKeys are Record's JSON keys in the order json.Marshal writes them.
var recordKeys = [...]string{
	"t", "time", "job", "token", "spec", "tenant", "status", "reason", "error", "stack",
	"evaluations", "budget", "best_config", "best_score", "test_score", "checkpoint", "preemptions", "failures",
}

// Decoder decodes record lines by hand, one at a time, and keeps one copy
// of each string it has decoded: a job's ID, its tenant and the keys and
// values of best configurations recur across a log's records. Object and
// its value readers decode the other objects a log holds, a job's spec,
// the same way. The zero value is ready to use.
type Decoder struct {
	data    []byte
	i       int
	strings map[string]string
}

// Record decodes a record line by hand if it is in the form that
// json.Marshal gives a Record (Object) — the raw spec and checkpoint may
// hold whitespace — and reports whether it did. Where it answers, rec is
// what json.Unmarshal gives; any other line, or one json.Unmarshal
// refuses, is left to json.Unmarshal.
func (d *Decoder) Record(line []byte) (rec Record, ok bool) {
	ok = d.Object(line, recordKeys[:], func(key int) bool {
		switch recordKeys[key] {
		case "t":
			return d.String(&rec.Type)
		case "time":
			raw := d.raw()
			return len(raw) > 0 && raw[0] == '"' && rec.Time.UnmarshalJSON(raw) == nil
		case "job":
			return d.String(&rec.JobID)
		case "token":
			return d.String(&rec.Token)
		case "spec":
			rec.Spec = d.raw()
			return rec.Spec != nil
		case "tenant":
			return d.String(&rec.Tenant)
		case "status":
			return d.String(&rec.Status)
		case "reason":
			return d.String(&rec.Reason)
		case "error":
			return d.String(&rec.Error)
		case "stack":
			return d.String(&rec.Stack)
		case "evaluations":
			return d.Int(&rec.Evaluations)
		case "budget":
			return d.Int(&rec.Budget)
		case "best_config":
			return d.take('{') && d.object(&rec.BestConfig, 1)
		case "best_score":
			return d.score(&rec.BestScore)
		case "test_score":
			return d.score(&rec.TestScore)
		case "checkpoint":
			rec.Checkpoint = d.raw()
			return rec.Checkpoint != nil
		case "preemptions":
			return d.Int(&rec.Preemptions)
		case "failures":
			return d.Int(&rec.Failures)
		}
		return false
	})
	if !ok {
		return Record{}, false
	}
	if rec.Spec != nil {
		rec.Spec = append(json.RawMessage(nil), rec.Spec...)
	}
	if rec.Checkpoint != nil {
		rec.Checkpoint = append(json.RawMessage(nil), rec.Checkpoint...)
	}
	return rec, true
}

// Object reads data by hand if it is an object in the form json.Marshal
// gives a struct whose JSON keys are keys, in order: no whitespace, each
// key at most once and in that order, no other key. It hands field the
// index of each key it meets, and field reads the key's value with
// String, Int, Uint, Float or Bool, which take the value only in the form
// json.Marshal gives one: a string that needs no unescaping, an integer
// with no fraction or exponent. Object reports whether it read all of
// data so, every field reporting true. Where it did, what the fields read
// is what json.Unmarshal gives; where it did not, json.Unmarshal is the
// decoder to ask.
func (d *Decoder) Object(data []byte, keys []string, field func(key int) bool) bool {
	d.data, d.i = data, 0
	if !d.take('{') {
		return false
	}
	next := 0 // keys[next:] are the keys still allowed
	for !d.take('}') {
		if next > 0 && !d.take(',') {
			return false
		}
		key, ok := d.str()
		if !ok || !d.take(':') {
			return false
		}
		for next < len(keys) && keys[next] != string(key) {
			next++
		}
		if next == len(keys) || !field(next) {
			return false
		}
		next++
	}
	return d.i == len(d.data)
}

// maxAnyDepth bounds how deep a best configuration may nest and still be
// decoded by hand: far below encoding/json's limit, and deeper than any
// search space's values.
const maxAnyDepth = 8

// take consumes c if it is the next byte.
func (d *Decoder) take(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str consumes a string literal that json.Unmarshal would decode to its
// bytes as they stand — no escape, no control character, valid UTF-8 —
// and returns those bytes.
func (d *Decoder) str() ([]byte, bool) {
	if !d.take('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.data[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.data[d.i : d.i+n]
	d.i += n + 1
	var high byte // the bytes or-ed: its top bit is set if one is not ASCII
	for _, c := range s {
		if c < 0x20 || c == '\\' {
			return nil, false
		}
		high |= c
	}
	return s, high < utf8.RuneSelf || utf8.Valid(s)
}

// String reads a string into *dst, the copy kept of it if there is one.
func (d *Decoder) String(dst *string) bool {
	s, ok := d.str()
	if ok {
		*dst = d.keep(s)
	}
	return ok
}

// keep returns the copy kept of s, made now if there is none.
func (d *Decoder) keep(s []byte) string {
	if k, ok := d.strings[string(s)]; ok {
		return k
	}
	if d.strings == nil {
		d.strings = map[string]string{}
	}
	k := string(s)
	d.strings[k] = k
	return k
}

// raw consumes any JSON value nested in the record and returns its bytes,
// nil if none follows.
func (d *Decoder) raw() []byte {
	n := jsonscan.Value(d.data[d.i:], 1)
	if n < 0 {
		return nil
	}
	d.i += n
	return d.data[d.i-n : d.i]
}

// number consumes a JSON number as json.Unmarshal parses one into a
// float64.
func (d *Decoder) number() (float64, bool) {
	n := jsonscan.Number(d.data[d.i:])
	if n < 0 {
		return 0, false
	}
	d.i += n
	f, err := strconv.ParseFloat(string(d.data[d.i-n:d.i]), 64)
	return f, err == nil
}

// Int reads an integer into *dst: one of at most 18 digits, so that it
// fits, with no fraction and no exponent.
func (d *Decoder) Int(dst *int) bool {
	neg := d.take('-')
	n, ok := d.digits(18)
	*dst = int(n)
	if neg {
		*dst = -*dst
	}
	return ok
}

// Uint reads an integer of at most 19 digits into *dst, as Int does.
func (d *Decoder) Uint(dst *uint64) bool {
	n, ok := d.digits(19)
	*dst = n
	return ok
}

// digits reads an integer's digits, at most max of them, with no leading
// zero and no fraction or exponent after them.
func (d *Decoder) digits(max int) (n uint64, ok bool) {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		n = n*10 + uint64(d.data[d.i]-'0')
		d.i++
	}
	switch digits := d.i - start; {
	case digits == 0 || digits > max || digits > 1 && d.data[start] == '0':
		return 0, false
	case d.i < len(d.data) && (d.data[d.i] == '.' || d.data[d.i] == 'e' || d.data[d.i] == 'E'):
		return 0, false
	}
	return n, true
}

// Float reads a number into *dst as json.Unmarshal parses one.
func (d *Decoder) Float(dst *float64) bool {
	f, ok := d.number()
	*dst = f
	return ok
}

// Bool reads true or false into *dst.
func (d *Decoder) Bool(dst *bool) bool {
	switch string(d.raw()) {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return false
	}
	return true
}

// score reads a number into a new float64.
func (d *Decoder) score(dst **float64) bool {
	f, ok := d.number()
	*dst = &f
	return ok
}

// object consumes the members of an object whose brace is taken into a
// new map, as json.Unmarshal decodes one into a map[string]any: a key
// repeated keeps its last value.
func (d *Decoder) object(dst *map[string]any, depth int) bool {
	m := map[string]any{}
	*dst = m
	if d.take('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.take(':') {
			return false
		}
		v, ok := d.value(depth)
		if !ok {
			return false
		}
		m[d.keep(key)] = v
		if d.take('}') {
			return true
		}
		if !d.take(',') {
			return false
		}
	}
}

// value consumes one value inside a best configuration, depth containers
// deep, as json.Unmarshal decodes it into an any.
func (d *Decoder) value(depth int) (any, bool) {
	if d.i >= len(d.data) {
		return nil, false
	}
	switch d.data[d.i] {
	case '"':
		s, ok := d.str()
		if !ok {
			return nil, false
		}
		return d.keep(s), true
	case '{':
		if depth >= maxAnyDepth {
			return nil, false
		}
		d.i++
		var m map[string]any
		ok := d.object(&m, depth+1)
		return m, ok
	case '[':
		if depth >= maxAnyDepth {
			return nil, false
		}
		d.i++
		return d.array(depth + 1)
	case 't', 'f', 'n':
		s := d.raw()
		switch string(s) {
		case "true":
			return true, true
		case "false":
			return false, true
		}
		return nil, string(s) == "null"
	}
	f, ok := d.number()
	return f, ok
}

// array consumes the elements of an array whose bracket is taken, as
// json.Unmarshal decodes one into an any: a []any, empty but not nil when
// the array is.
func (d *Decoder) array(depth int) (any, bool) {
	a := []any{}
	if d.take(']') {
		return a, true
	}
	for {
		v, ok := d.value(depth)
		if !ok {
			return nil, false
		}
		a = append(a, v)
		if d.take(']') {
			return a, true
		}
		if !d.take(',') {
			return nil, false
		}
	}
}
