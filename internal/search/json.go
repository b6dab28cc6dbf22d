package search

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// JSON decoding of spaces, so CLI users can search custom grids:
//
//	{
//	  "dimensions": [
//	    {"name": "hidden_layer_sizes", "values": [[30], [30, 30], [64]]},
//	    {"name": "activation", "values": ["relu", "tanh"]},
//	    {"name": "learning_rate_init", "values": [0.1, 0.01]},
//	    {"name": "batch_size", "values": [32, 64]},
//	    {"name": "early_stopping", "values": [true, false]}
//	  ]
//	}
//
// Value typing follows the dimension semantics used by ToNNConfig:
// numbers decode to int for integer-valued dimensions (batch_size) and
// float64 otherwise; arrays of numbers decode to []int layer shapes.

type jsonSpace struct {
	Dimensions []jsonDimension `json:"dimensions"`
}

type jsonDimension struct {
	Name   string            `json:"name"`
	Values []json.RawMessage `json:"values"`
}

// ReadSpaceJSON parses a Space from JSON.
func ReadSpaceJSON(r io.Reader) (*Space, error) {
	var js jsonSpace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("search: decoding space: %w", err)
	}
	s := &Space{}
	for _, jd := range js.Dimensions {
		dim := Dimension{Name: jd.Name}
		for vi, raw := range jd.Values {
			v, err := decodeValue(jd.Name, raw)
			if err != nil {
				return nil, fmt.Errorf("search: dimension %q value %d: %w", jd.Name, vi, err)
			}
			dim.Values = append(dim.Values, v)
		}
		s.Dims = append(s.Dims, dim)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// intValuedDimensions lists the dimensions whose numeric values are ints.
var intValuedDimensions = map[string]bool{
	DimBatchSize: true,
}

func decodeValue(dimName string, raw json.RawMessage) (any, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	switch t := v.(type) {
	case string:
		return t, nil
	case bool:
		return t, nil
	case float64:
		if intValuedDimensions[dimName] {
			if t != math.Trunc(t) {
				return nil, fmt.Errorf("non-integer value %v for integer dimension", t)
			}
			return int(t), nil
		}
		return t, nil
	case []any:
		shape := make([]int, len(t))
		for i, e := range t {
			f, ok := e.(float64)
			if !ok || f != math.Trunc(f) {
				return nil, fmt.Errorf("layer shape element %v is not an integer", e)
			}
			shape[i] = int(f)
		}
		if len(shape) == 0 {
			return nil, fmt.Errorf("empty layer shape")
		}
		return shape, nil
	default:
		return nil, fmt.Errorf("unsupported value type %T", v)
	}
}
