package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// EncodeAnytime writes an incumbent curve as a JSON array. It is the one
// serialization shared by the bhpod status endpoint and the experiments
// CLI, so curves produced by either can be consumed by the same tooling.
func EncodeAnytime(w io.Writer, points []Point) error {
	if points == nil {
		points = []Point{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(points)
}

// DecodeAnytime reads a JSON incumbent curve written by EncodeAnytime.
func DecodeAnytime(r io.Reader) ([]Point, error) {
	var points []Point
	if err := json.NewDecoder(r).Decode(&points); err != nil {
		return nil, fmt.Errorf("trace: decoding anytime curve: %w", err)
	}
	return points, nil
}
