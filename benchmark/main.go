// Command benchmark is the repo's end-to-end and per-layer benchmark; see
// README.md beside it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"

	"repro/internal/program"
	"repro/sim"
)

// scratchDir holds everything a run leaves on disk: stores, fleet
// journals, traces and the children's result files. It is relative to the
// working directory, which run.sh makes the checkout's root.
const scratchDir = ".bench_build/scratch"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run only this `name` (default: all six, each in a process of its own)")
	seed := flag.Uint64("seed", 1, "workload seed: selects the systematic phase offset j = seed mod k")
	seconds := flag.Float64("seconds", 12, "how long one run measures (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced layer pass")
	out := flag.String("out", "", "also write the results to `file`, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: baseline candidate")
	update := flag.Bool("update-golden", false, "regenerate benchmark/"+goldenFile+" (only for a change meant to alter the model)")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files: baseline candidate")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *update:
		return updateGolden(ctx)
	case *name == "":
		return runAll(*seed, *seconds, *out)
	}

	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	env := currentEnv()
	fmt.Println(env)

	var r *result
	defs := endToEnd
	if *trace == 0 {
		r, err = runEndToEnd(ctx, w, *seed, *seconds, scratchDir, gold)
	} else {
		defs = perLayer
		tracePath := filepath.Join(scratchDir, "trace."+w.name+".json")
		if r, err = runLayers(ctx, w, *seed, *seconds, scratchDir, gold, tracePath); err == nil {
			fmt.Printf("%-14s spans written to %s; attribution %s\n", w.name, tracePath, attribution(r))
		}
	}
	if err != nil {
		return err
	}
	r.print(os.Stdout, defs)
	if *out != "" {
		if err := (&runFile{Env: env, Results: []*result{r}}).write(*out); err != nil {
			return err
		}
	}
	line, err := r.contractLine(defs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// envInfo records where a run was made, so numbers from different boxes
// are not compared by accident.
type envInfo struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	ReplayWorkers int    `json:"replay_workers"`
	FleetWorkers  int    `json:"fleet_workers"`
}

func currentEnv() envInfo {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", ReplayWorkers: replayWorkers(), FleetWorkers: fleetWorkers,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func (e envInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s replay-workers=%d fleet=1+%dx1",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.ReplayWorkers, e.FleetWorkers)
}

// runAll runs every workload untraced and then traced, each run in a
// re-exec'd child so that resident-set peaks and collector state do not
// leak from one into the next, and gathers the children's results.
func runAll(seed uint64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	all := &runFile{Env: currentEnv()}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(scratchDir, fmt.Sprintf("result.%s.%d.json", w.name, trace))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			f, err := readRunFile(part)
			if err != nil {
				return err
			}
			all.Results = append(all.Results, f.Results...)
		}
	}
	failed := 0
	for _, r := range all.Results {
		failed += r.Failed
	}
	if out != "" {
		if err := all.write(out); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}

func compareFiles(pathA, pathB string) error {
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	if compareRuns(os.Stdout, a, b) {
		return errors.New("regressed")
	}
	return nil
}

// goldenOffsets is how many phase offsets per workload get a committed
// digest; seeds that select a later offset are checked run against run.
const goldenOffsets = 16

// updateGolden recomputes every reference and digest from the model as it
// is now. The new file takes effect at the next build.
func updateGolden(ctx context.Context) error {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	gold := &golden{References: map[string]float64{}, Digests: map[string]string{}}
	for _, w := range workloads {
		spec, err := program.ByName(w.bench)
		if err != nil {
			return err
		}
		prog, err := program.Generate(spec, w.length)
		if err != nil {
			return err
		}
		cfg := sim.Config8Way()
		if gold.References[referenceKey(prog, cfg)], err = gold.reference(prog, cfg); err != nil {
			return err
		}
		k := sim.ResolvePlan(w.request(0), prog).K
		for j := uint64(0); j < min(k, goldenOffsets); j++ {
			e, err := setUp(ctx, w, j, scratchDir, gold)
			if err != nil {
				return err
			}
			gold.Digests[digestKey(e)] = e.want
			e.close()
			fmt.Printf("%s = %s\n", digestKey(e), e.want)
		}
	}
	return gold.write(filepath.Join("benchmark", goldenFile))
}
