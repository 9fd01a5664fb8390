package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline commits records as a -delta snapshot file and returns
// its path.
func writeBaseline(t *testing.T, records []benchRecord) string {
	t.Helper()
	data, err := json.Marshal(map[string]any{"experiments": records})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckBenchDelta: work counters must match the snapshot exactly and
// are reported as a model change; wall time and mallocs keep their
// relative tolerance.
func TestCheckBenchDelta(t *testing.T) {
	base := benchRecord{ID: "fig10", Seconds: 1, Events: 1000, Flows: 200, Settles: 300, Mallocs: 5000}
	path := writeBaseline(t, []benchRecord{base})
	for _, tc := range []struct {
		name    string
		edit    func(*benchRecord)
		wantErr string // empty: must pass
	}{
		{"identical", func(*benchRecord) {}, ""},
		{"events mismatch", func(r *benchRecord) { r.Events++ }, "model change"},
		{"flows mismatch", func(r *benchRecord) { r.Flows-- }, "model change"},
		{"settles mismatch", func(r *benchRecord) { r.Settles += 7 }, "model change"},
		{"malloc rise over 10%", func(r *benchRecord) { r.Mallocs = 5600 }, "mallocs"},
		{"wall rise of 5%", func(r *benchRecord) { r.Seconds = 1.05 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := base
			tc.edit(&rec)
			err := checkBenchDelta(path, []benchRecord{rec}, 0.10)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("want failure mentioning %q, got pass", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
