package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/program"
	"repro/internal/smarts"
	"repro/sim"
)

// goldenFile is the committed golden, relative to the benchmark's
// directory; -update-golden rewrites it there.
const goldenFile = "golden.json"

//go:embed golden.json
var goldenJSON []byte

// golden holds what a change that does not mean to alter the model must
// reproduce exactly: per program the full-detail reference CPI, per
// request the report digest. A change that claims a gain may not edit it.
type golden struct {
	// References maps a program (referenceKey) to its full-detail CPI.
	References map[string]float64 `json:"references"`
	// Digests maps a request (digestKey) to its report digest.
	Digests map[string]string `json:"digests"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// refChunk is the mark granularity of the full-detail reference run; the
// reference CPI does not depend on it.
const refChunk = 100_000

func referenceKey(prog *program.Program, cfg sim.Config) string {
	return fmt.Sprintf("%s/insts=%d/%s", prog.Name, prog.Length, cfg.Name)
}

// reference returns prog's full-detail CPI on cfg: the committed one, or
// on a golden miss a live full-detail simulation.
func (g *golden) reference(prog *program.Program, cfg sim.Config) (float64, error) {
	if cpi, ok := g.References[referenceKey(prog, cfg)]; ok {
		return cpi, nil
	}
	ref, err := smarts.FullRun(prog, cfg, refChunk)
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	return ref.TrueCPI(), nil
}

// digestKey names one request: the workload, its sizes and the phase
// offset the seed selected (seeds that select the same offset send the
// same request).
func digestKey(e *env) string {
	return fmt.Sprintf("%s/%s/insts=%d/units=%d/j=%d", e.w.name, e.w.bench, e.w.length, e.w.units, e.plan.J)
}

func (g *golden) digest(e *env) (string, bool) {
	d, ok := g.Digests[digestKey(e)]
	return d, ok
}

// write stores g; encoding/json sorts map keys, so regenerating it on an
// unchanged model leaves the file byte-identical.
func (g *golden) write(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return nil
}
