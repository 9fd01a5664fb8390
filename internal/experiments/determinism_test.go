package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"multicore/internal/report"
)

// runTables runs an experiment at quick scale through the given runner.
func runTables(t *testing.T, r *Runner, e Experiment) []*report.Table {
	t.Helper()
	tabs, err := r.Run(e, Quick)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	return tabs
}

// renderAll renders an experiment's tables through the given runner to
// one canonical string.
func renderAll(t *testing.T, r *Runner, e Experiment) string {
	t.Helper()
	return textOf(runTables(t, r, e))
}

// textOf concatenates the text renders of tables.
func textOf(tabs []*report.Table) string {
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.Text())
		b.WriteString("\n")
	}
	return b.String()
}

// TestSerialParallelIdentical is the determinism regression for the
// parallel executor: every experiment must render byte-identical tables
// whether its cells run serially or on a many-worker pool. Each pass
// gets a fresh runner so both actually simulate. The serial pass's
// markdown must also equal the committed results/<id>.md byte for byte,
// so every artifact's output is pinned (regenerate them with
// `mcbench -format md -out results all` after a deliberate model change).
func TestSerialParallelIdentical(t *testing.T) {
	exps := All()
	if testing.Short() {
		// One representative of each table family keeps -short fast.
		short := []string{"fig2", "fig8", "fig14", "table2", "table8", "table13", "ablate-sublayer"}
		exps = exps[:0]
		for _, id := range short {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("no experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tabs := runTables(t, NewRunner(nil, Options{Parallelism: 1}), e)
			serial := textOf(tabs)
			parallel := renderAll(t, NewRunner(nil, Options{Parallelism: 8}), e)
			if serial != parallel {
				t.Errorf("%s: serial and parallel runs render different tables\nserial:\n%s\nparallel:\n%s",
					e.ID, serial, parallel)
			}
			path := filepath.Join("..", "..", "results", e.ID+".md")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The artifact file mcbench writes: a header, then each table.
			var md strings.Builder
			fmt.Fprintf(&md, "# %s — %s\n\nPaper: %s\n\n", e.ID, e.Title, e.Paper)
			for _, tab := range tabs {
				md.WriteString(tab.Markdown())
				md.WriteString("\n")
			}
			if got := md.String(); got != string(want) {
				t.Errorf("%s: serial markdown differs from %s\ngot:\n%s\nwant:\n%s", e.ID, path, got, want)
			}
		})
	}
}

// updateEngineGolden rewrites testdata/engine_golden.json from the current
// engine. Run it once per intentional semantic change:
//
//	go test ./internal/experiments -run TestEngineGolden -update-engine-golden
var updateEngineGolden = flag.Bool("update-engine-golden", false,
	"rewrite testdata/engine_golden.json from the current engine")

// engineGolden pins the engine's observable semantics: SHA-256 of the
// rendered tables and of the combined per-cell Chrome traces for one
// microbenchmark, one NPB, and one application artifact. The committed
// file was generated from the seed (pre-optimization) event engine, so
// any engine rework that changes a simulated time, a trace span, or a
// resource-rate segment anywhere in these sweeps fails this test.
type engineGolden struct {
	Tables map[string]string `json:"tables"`
	Traces map[string]string `json:"traces"`
}

const engineGoldenPath = "testdata/engine_golden.json"

// engineGoldenSample spans the three workload families: STREAM triad
// (micro), NAS EP/MG (NPB), and AMBER JAC (application).
var engineGoldenSample = []string{"fig2", "ext-npb", "table9"}

func sha256hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// hashTraceDir hashes every trace file in dir as (name, content) pairs in
// sorted order, so the digest covers the full byte content of every cell's
// trace and the set of cells traced.
func hashTraceDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no trace files written")
	}
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGoldenArtifacts re-simulates the sample artifacts with tracing
// enabled and asserts the tables and traces are byte-identical to the
// committed goldens. Each sample gets a fresh runner so every cell is
// simulated and traced.
func TestEngineGoldenArtifacts(t *testing.T) {
	got := engineGolden{Tables: map[string]string{}, Traces: map[string]string{}}
	for _, id := range engineGoldenSample {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		dir := t.TempDir()
		r := NewRunner(nil, Options{TraceDir: dir})
		text := renderAll(t, r, e)
		got.Tables[id] = sha256hex([]byte(text))
		got.Traces[id] = hashTraceDir(t, dir)
	}

	if *updateEngineGolden {
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", engineGoldenPath)
		return
	}

	data, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-engine-golden): %v", err)
	}
	var want engineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, id := range engineGoldenSample {
		if got.Tables[id] != want.Tables[id] {
			t.Errorf("%s: table hash %s != golden %s — engine change altered simulated results",
				id, got.Tables[id], want.Tables[id])
		}
		if got.Traces[id] != want.Traces[id] {
			t.Errorf("%s: trace hash %s != golden %s — engine change altered trace content",
				id, got.Traces[id], want.Traces[id])
		}
	}
}
