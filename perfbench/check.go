package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// pinned.json holds what the model alone determines: the hash of the
// rendered ext-scale artifact, and the exact work counts of each
// workload's deterministic unit (one pass of the artifacts, the service
// workload's bulk sweep, the ladder's MPI runs). Output checks fail a
// run; a count that differs from its pin is reported as a model change,
// because only a change to the model or the engine can move it.
//
//go:embed pinned.json
var pinnedJSON []byte

type pins struct {
	ScaleSHA256 string                       `json:"ext_scale_sha256"`
	Counts      map[string]map[string]uint64 `json:"counts"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("pinned.json: %v", err)
	}
	return p, nil
}

// guardCounts compares a unit's exact counts with the pinned ones and
// records the verdict as a detail ("ok" or every difference).
func guardCounts(o *outcome, unit string, got map[string]uint64) {
	p, err := loadPins()
	if err != nil {
		o.fail("%v", err)
		return
	}
	want := p.Counts[unit]
	var diffs []string
	for k, v := range got {
		if w, ok := want[k]; !ok || w != v {
			diffs = append(diffs, fmt.Sprintf("%s=%d (pinned %d)", k, v, w))
		}
	}
	sort.Strings(diffs)
	o.details["counts."+unit] = got
	if len(diffs) == 0 {
		o.details["count_guard."+unit] = "ok"
		return
	}
	o.details["count_guard."+unit] = "model change: " + fmt.Sprint(diffs)
	fmt.Fprintf(os.Stderr, "perfbench: %s counts differ from pinned.json, which only a model or engine change explains: %v\n", unit, diffs)
}

// finishTrace writes the traced run's spans under .bench_build/traces
// and adds each layer's self time (span time not covered by its child
// spans) as a detail.
func finishTrace(cfg config, name string, tr *tracer, o *outcome) error {
	spans := tr.all()
	self := selfTimes(spans)
	byLayer := map[string]float64{}
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID].Seconds()
	}
	o.details["self_s"] = byLayer
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, time.Now().UnixNano()))
	o.details["trace_file"] = path
	return tr.write(path)
}
