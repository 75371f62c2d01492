package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
)

// TestJSONSummaryFields runs one experiment the way `ugrapher-bench -quick
// -datasets CO -json out.json table3` does and pins the record's shape: the
// seven fields below and nothing about a host backend, and a file that
// decodes back into the record it was written from.
func TestJSONSummaryFields(t *testing.T) {
	var summaries []experimentSummary
	opts := bench.Options{Quick: true, Datasets: []string{"CO"}}
	if err := runCmd(context.Background(), "table3", opts, true, &summaries); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := writeSummaries(path, summaries); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var records []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &records); err != nil || len(records) != 1 {
		t.Fatalf("want one JSON record, got %d (%v):\n%s", len(records), err, raw)
	}
	var keys []string
	for k := range records[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"datasets", "experiment", "quick", "rows", "title", "verified", "wall_ms"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("summary fields = %v, want %v", keys, want)
	}

	var back []experimentSummary
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, summaries) {
		t.Errorf("round trip changed the record:\n got %+v\nwant %+v", back, summaries)
	}
	if got := back[0]; got.Experiment != "table3" || !got.Quick || got.Rows != 1 || got.WallMs <= 0 {
		t.Errorf("record = %+v, want table3, quick, one row (CO), a positive wall_ms", got)
	}
}
