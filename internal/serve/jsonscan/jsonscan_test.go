package jsonscan

import (
	"encoding/json"
	"strings"
	"testing"
)

// validRows are texts at the edges of JSON's grammar and of encoding/json's
// nesting limit. FuzzValid (internal/serve) holds Valid to json.Valid from
// every line a log holds.
var validRows = []string{
	``, ` `, `0`, `-0`, `01`, `-`, `1.`, `1.5`, `.5`, `1e5`, `1E+5`, `1e-05`, `1e`, `1e+`, `-1.5e3`, `2.`, `1x`,
	`true`, `tru`, `truex`, `false`, `null`, `nul`, `NULL`,
	`""`, `"`, `"a`, `"\"`, `"\\"`, `"\/\b\f\n\r\t"`, `"\x"`, `"é"`, `"é"`, `"\u00g9"`, `"\u00e"`,
	`"\ud800"`, `"\udc00\ud800"`, `"😀"`, "\"a\x00\"", "\"a\x1f\"", "\"a\x7f\"", "\"\xff\xfe\"", "\"\xe2\x28\xa1\"",
	"\xff", `[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[1,2]`, `[[[]]]`, `[[]`, `[]]`,
	`{}`, `{ }`, `{"a":1}`, `{"a" : 1 }`, `{"a":}`, `{"a"}`, `{a:1}`, `{"a":1,}`, `{,"a":1}`, `{"a":1 "b":2}`, `{"a":1}}`,
	`{"a":[1,{"b":null}],"c":"d"}`, " \t\r\n{}\n", "{}\v", `{"a":1}{}`, `[1]x`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"a":`, 9999) + `{}` + strings.Repeat("}", 9999),
	strings.Repeat(`{"a":`, 10000) + `{}` + strings.Repeat("}", 10000),
	`{"seq":1,"type":"curve_point","time":"2026-08-05T10:00:00Z","job":"job-1","point":{"evaluations":1,"cum_budget":10,"cum_time_ns":1,"best_score":0.5}}`,
}

func TestValidIsJSONValid(t *testing.T) {
	for _, row := range validRows {
		if got, want := Valid([]byte(row)), json.Valid([]byte(row)); got != want {
			t.Errorf("Valid(%.60q) = %t, json.Valid says %t", row, got, want)
		}
	}
}

func TestValueEndsWhereTheValueDoes(t *testing.T) {
	for _, tc := range []struct {
		text  string
		depth int
		want  int
	}{
		{`{"a":[1,2]},"b"`, 0, len(`{"a":[1,2]}`)},
		{`"x\"y" ,`, 0, len(`"x\"y"`)},
		{`12.5e3}`, 0, len(`12.5e3`)},
		{`null]`, 0, len(`null`)},
		{` 1`, 0, -1},
		{`[1,`, 0, -1},
		{`[]`, 9999, 2},
		{`[]`, 10000, -1},
		{`1`, 10000, 1},
	} {
		if got := Value([]byte(tc.text), tc.depth); got != tc.want {
			t.Errorf("Value(%q, %d) = %d, want %d", tc.text, tc.depth, got, tc.want)
		}
	}
	for _, tc := range []struct {
		text string
		want int
	}{{`-0,`, 2}, {`10e-2}`, 5}, {`01`, 1}, {`-`, -1}, {`1.e2`, -1}, {`"1"`, -1}} {
		if got := Number([]byte(tc.text)); got != tc.want {
			t.Errorf("Number(%q) = %d, want %d", tc.text, got, tc.want)
		}
	}
}

func TestValidAllocatesNothing(t *testing.T) {
	line := []byte(validRows[len(validRows)-1])
	if n := testing.AllocsPerRun(10, func() { Valid(line) }); n != 0 {
		t.Errorf("Valid of an event line allocates %.0f objects", n)
	}
}
