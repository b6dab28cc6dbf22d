package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
)

// DecodeAnytime reads a JSON incumbent curve written by EncodeAnytime:
// the round-trip oracle of its tests.
func DecodeAnytime(r io.Reader) ([]Point, error) {
	var points []Point
	if err := json.NewDecoder(r).Decode(&points); err != nil {
		return nil, fmt.Errorf("trace: decoding anytime curve: %w", err)
	}
	return points, nil
}

func TestAnytimeJSONRoundTrip(t *testing.T) {
	curve := []Point{
		{Evaluations: 1, CumBudget: 100, CumTime: 1500 * time.Microsecond, BestScore: 0.25},
		{Evaluations: 2, CumBudget: 300, CumTime: 3 * time.Millisecond, BestScore: 1.0 / 3.0},
		{Evaluations: 3, CumBudget: 900, CumTime: 3*time.Millisecond + 17*time.Nanosecond, BestScore: math.Nextafter(1, 0)},
	}
	var buf bytes.Buffer
	if err := EncodeAnytime(&buf, curve); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAnytime(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(curve) {
		t.Fatalf("round-tripped %d points, want %d", len(got), len(curve))
	}
	for i := range curve {
		if got[i] != curve[i] {
			t.Fatalf("point %d: %+v != %+v (scores must round-trip bit-for-bit)", i, got[i], curve[i])
		}
	}
}

func TestAnytimeJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeAnytime(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); s != "[]\n" {
		t.Fatalf("nil curve encoded as %q, want []", s)
	}
	got, err := DecodeAnytime(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d points from empty curve", len(got))
	}
}

func TestAnytimeJSONRejectsGarbage(t *testing.T) {
	if _, err := DecodeAnytime(bytes.NewReader([]byte(`{"not":"an array"}`))); err == nil {
		t.Fatal("expected error decoding a non-array")
	}
}
