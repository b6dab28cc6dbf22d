package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"enhancedbhpo/internal/hpo"
)

func TestOutcomeJSON(t *testing.T) {
	train, test := smallData(t)
	out, err := Run(train, test, Options{
		Method:     "sha",
		Space:      smallSpace(t),
		Base:       fastBase(),
		RunOptions: hpo.RunOptions{Seed: 21, MaxConfigs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := out.JSON()
	if j.Method != "sha" {
		t.Errorf("method %q", j.Method)
	}
	if j.BestID == "" || len(j.Best) == 0 {
		t.Error("best config missing")
	}
	if _, ok := j.Best["activation"]; !ok {
		t.Error("best config missing activation dimension")
	}
	if j.TestScore != out.TestScore {
		t.Error("test score mismatch")
	}
	if j.Evaluations != out.Search.Evaluations {
		t.Error("evaluation count mismatch")
	}
	if j.TotalBudget <= 0 {
		t.Error("no budget recorded")
	}
	if len(j.Rounds) == 0 {
		t.Error("no rounds recorded")
	}

	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back OutcomeJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.BestID != j.BestID || back.TestScore != j.TestScore {
		t.Error("JSON round trip lost data")
	}
}
