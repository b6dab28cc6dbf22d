package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"enhancedbhpo/internal/nn"
)

// WriteSpaceJSON renders the space as JSON: the inverse of ReadSpaceJSON,
// the round-trip oracle of its tests.
func WriteSpaceJSON(w io.Writer, s *Space) error {
	if err := s.Validate(); err != nil {
		return err
	}
	js := jsonSpace{}
	for _, dim := range s.Dims {
		jd := jsonDimension{Name: dim.Name}
		for _, v := range dim.Values {
			raw, err := json.Marshal(v)
			if err != nil {
				return fmt.Errorf("search: encoding %q value %v: %w", dim.Name, v, err)
			}
			jd.Values = append(jd.Values, raw)
		}
		js.Dimensions = append(js.Dimensions, jd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

const sampleSpaceJSON = `{
  "dimensions": [
    {"name": "hidden_layer_sizes", "values": [[30], [30, 30], [64]]},
    {"name": "activation", "values": ["relu", "tanh"]},
    {"name": "learning_rate_init", "values": [0.1, 0.01]},
    {"name": "batch_size", "values": [32, 64]},
    {"name": "early_stopping", "values": [true, false]}
  ]
}`

func TestReadSpaceJSON(t *testing.T) {
	s, err := ReadSpaceJSON(strings.NewReader(sampleSpaceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != 3*2*2*2*2 {
		t.Fatalf("size = %d", got)
	}
	cfg := s.NewConfig([]int{2, 0, 1, 1, 0})
	nnCfg, err := ToNNConfig(cfg, nn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nnCfg.HiddenLayerSizes[0] != 64 {
		t.Fatalf("hidden = %v", nnCfg.HiddenLayerSizes)
	}
	if nnCfg.BatchSize != 64 {
		t.Fatalf("batch = %d (type decoding wrong)", nnCfg.BatchSize)
	}
	if nnCfg.LearningRateInit != 0.01 {
		t.Fatalf("lr = %v", nnCfg.LearningRateInit)
	}
	if !nnCfg.EarlyStopping {
		t.Fatal("early stopping not decoded")
	}
}

func TestSpaceJSONRoundTrip(t *testing.T) {
	orig, err := TableIIISpace(8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSpaceJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpaceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != orig.Size() {
		t.Fatalf("round trip size %d, want %d", back.Size(), orig.Size())
	}
	// Every configuration must materialize identically.
	base := nn.DefaultConfig()
	idx := []int{3, 1, 2, 0, 1, 2, 1, 0}
	c1, err := ToNNConfig(orig.NewConfig(idx), base)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ToNNConfig(back.NewConfig(idx), base)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Activation != c2.Activation || c1.Solver != c2.Solver ||
		c1.LearningRateInit != c2.LearningRateInit || c1.BatchSize != c2.BatchSize ||
		c1.LearningRate != c2.LearningRate || c1.Momentum != c2.Momentum ||
		c1.EarlyStopping != c2.EarlyStopping {
		t.Fatalf("configs differ after round trip:\n%+v\n%+v", c1, c2)
	}
	if len(c1.HiddenLayerSizes) != len(c2.HiddenLayerSizes) {
		t.Fatal("hidden shapes differ")
	}
}

func TestReadSpaceJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":        "nope",
		"unknown field":   `{"dims": []}`,
		"empty":           `{"dimensions": []}`,
		"unnamed":         `{"dimensions": [{"name": "", "values": [1]}]}`,
		"no values":       `{"dimensions": [{"name": "a", "values": []}]}`,
		"null value":      `{"dimensions": [{"name": "a", "values": [null]}]}`,
		"nested object":   `{"dimensions": [{"name": "a", "values": [{"x": 1}]}]}`,
		"float batch":     `{"dimensions": [{"name": "batch_size", "values": [32.5]}]}`,
		"bad shape":       `{"dimensions": [{"name": "hidden_layer_sizes", "values": [[1.5]]}]}`,
		"empty shape":     `{"dimensions": [{"name": "hidden_layer_sizes", "values": [[]]}]}`,
		"duplicate names": `{"dimensions": [{"name": "a", "values": [1]}, {"name": "a", "values": [2]}]}`,
	}
	for name, data := range cases {
		if _, err := ReadSpaceJSON(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
