package main

import (
	"os"
	"path/filepath"
	"testing"

	"multicore/internal/sweepd"
)

// goldenRoot copies the committed numa-stream result into a fresh
// checkout root, passing its bytes through corrupt.
func goldenRoot(t *testing.T, corrupt func([]byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "results", "numa-stream.md"))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "results", "numa-stream.md"), corrupt(b), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func runNumaStream(t *testing.T, root string) *outcome {
	t.Helper()
	sys, err := setupArtifacts([]string{"numa-stream"}, goldenHash(root))
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	sys.runPass(newTracer(false), o)
	return o
}

// An artifact whose rendered bytes differ from the expected ones fails
// the run; the unmodified golden file passes.
func TestCorruptedArtifactFailsRun(t *testing.T) {
	if o := runNumaStream(t, goldenRoot(t, func(b []byte) []byte { return b })); !o.correct() {
		t.Fatalf("unmodified golden file: problems %v, failed %d", o.problems, o.failed)
	}
	flip := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		b[len(b)/2] ^= 1
		return b
	}
	o := runNumaStream(t, goldenRoot(t, flip))
	if o.correct() || o.failed == 0 {
		t.Fatalf("corrupted golden file: correct=%v failed=%d, want a failed run", o.correct(), o.failed)
	}
}

// A distributed cell whose fingerprint differs from the serial run's,
// or a divergent summary, fails the run.
func TestCorruptedCellFailsBulkCheck(t *testing.T) {
	cell := sweepd.CellSpec{Workload: "stream", System: "tiger", Ranks: 1, Scheme: "default", Scale: "quick"}
	ref := map[string]sweepd.CellResult{cell.Key(): {Cell: cell, Status: sweepd.StatusOK, Fingerprint: "00"}}
	good := map[string]sweepd.CellResult{cell.Key(): {Cell: cell, Status: sweepd.StatusOK, Fingerprint: "00"}}
	bad := map[string]sweepd.CellResult{cell.Key(): {Cell: cell, Status: sweepd.StatusOK, Fingerprint: "01"}}

	o := newOutcome()
	checkBulk(o, good, ref, &sweepd.Summary{Cells: 1})
	if !o.correct() || o.attempted != 1 {
		t.Fatalf("matching cell: correct=%v attempted=%d problems %v", o.correct(), o.attempted, o.problems)
	}
	o = newOutcome()
	checkBulk(o, bad, ref, &sweepd.Summary{Cells: 1})
	if o.correct() || o.failed != 1 {
		t.Fatalf("corrupted cell: correct=%v failed=%d, want a failed run", o.correct(), o.failed)
	}
	o = newOutcome()
	checkBulk(o, good, ref, &sweepd.Summary{Cells: 1, Divergent: 1})
	if o.correct() {
		t.Fatalf("divergent summary passed the check")
	}
}
