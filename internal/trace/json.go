package trace

import (
	"encoding/json"
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
