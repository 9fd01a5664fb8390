package main

import "fmt"

// runScale regenerates ext-scale, the ring-halo exchange at 64, 1,024
// and 10,240 ranks on Longs nodes, and checks the rendered artifact
// against the hash pinned in pinned.json (ext-scale has no committed
// results file).
func runScale(cfg config) (*outcome, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	expect := func(id string) (string, error) {
		if p.ScaleSHA256 == "" {
			return "", fmt.Errorf("pinned.json has no ext-scale hash")
		}
		return p.ScaleSHA256, nil
	}
	return runArtifactWorkload(cfg, "scale", []string{"ext-scale"}, expect)
}
