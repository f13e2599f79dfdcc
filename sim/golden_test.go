package sim_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/smarts"
	"repro/internal/uarch"
	"repro/sim"
)

var updateGoldens = flag.Bool("update", false, "rewrite the experiment goldens under testdata/")

// TestExperimentGoldens pins the text of every registry experiment at
// the Tiny scale, run twice: on the serial sampler (smarts.SerialSampler,
// the paper's in-place loop) and through a session on the engine with
// two workers and a checkpoint store. The two modes differ by design
// (see smarts.SerialLoop), so each has its own golden. Table 6's
// wall-clock columns are dropped before the comparison (normalize).
//
// The goldens are today's figures and tables, not the paper's: ROADMAP
// item 3 (a suite that writes memory) changes the workloads and will
// re-pin them with -update.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("needs references")
	}
	cfg := uarch.Config8Way()
	serial := experiments.NewContext(experiments.Tiny, smarts.SerialSampler{})
	sess, err := sim.Open(sim.WithStore(t.TempDir()), sim.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	modes := []struct {
		name string
		run  func(exp string) (string, error)
	}{
		{"serial", func(exp string) (string, error) {
			var buf bytes.Buffer
			err := experiments.Run(context.Background(), exp, serial, cfg, &buf)
			return buf.String(), err
		}},
		{"engine", func(exp string) (string, error) {
			rep, err := sess.Run(context.Background(), sim.NewExperiment(exp, sim.AtScale("tiny")))
			if err != nil {
				return "", err
			}
			return rep.ExperimentOutput, nil
		}},
	}
	for _, mode := range modes {
		var got strings.Builder
		for _, exp := range experiments.Names() {
			out, err := mode.run(exp)
			if err != nil {
				t.Fatalf("%s %s: %v", mode.name, exp, err)
			}
			fmt.Fprintf(&got, "== %s ==\n%s\n", exp, normalize(out))
		}
		path := filepath.Join("testdata", "experiments-tiny-"+mode.name+".golden")
		if *updateGoldens {
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: experiment output differs from %s:\n%s", mode.name, path, got.String())
		}
	}
}

// normalize drops what reads the wall clock from an experiment's text:
// the "completed in" lines a CLI adds, and Table 6's measured columns.
// A Table 6 row keeps its bench name only, and the rows are sorted,
// because the table orders them by measured detailed time; the average
// line keeps the analytic model's speedup only.
func normalize(out string) string {
	var lines, rows []string
	inTable6 := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "completed in"):
		case strings.HasPrefix(line, "Table 6:"):
			inTable6 = true
			lines = append(lines, line)
		case inTable6 && strings.HasPrefix(line, "bench"):
			lines = append(lines, "bench")
		case inTable6 && strings.HasPrefix(line, "average speedup:"):
			sort.Strings(rows)
			lines = append(lines, rows...)
			if i := strings.Index(line, "(analytic"); i >= 0 {
				line = "average speedup: " + line[i:]
			}
			lines = append(lines, line)
			inTable6 = false
		case inTable6:
			if f := strings.Fields(line); len(f) > 0 {
				rows = append(rows, f[0])
			}
		default:
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}
