// Package simflag centralizes the command-line flags the cmd/ binaries
// share, so an option added to the sampling service is defined once
// and appears uniformly everywhere. Each Register* helper installs one
// coherent flag group on a FlagSet and returns an accessor struct that
// translates the parsed values into sim requests and session options.
package simflag

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/sim"
)

// Workload groups the workload-selection flags (-bench, -length,
// -list).
type Workload struct {
	Bench  *string
	Length *uint64
	List   *bool
}

// RegisterWorkload installs the workload flags.
func RegisterWorkload(fs *flag.FlagSet) *Workload {
	return &Workload{
		Bench:  fs.String("bench", "gccx", "workload name (see -list)"),
		Length: fs.Uint64("length", 2_000_000, "target dynamic instruction count"),
		List:   fs.Bool("list", false, "list available workloads and exit"),
	}
}

// ListAndExit handles -list: when set, print the suite and return true
// (the caller should exit).
func (w *Workload) ListAndExit() bool {
	if !*w.List {
		return false
	}
	for _, spec := range sim.Workloads() {
		fmt.Printf("%-10s (archetype of %s)\n", spec.Name, spec.Model)
	}
	return true
}

// Machine groups the machine-configuration flags (-config).
type Machine struct {
	Name *string
}

// RegisterMachine installs the machine flags.
func RegisterMachine(fs *flag.FlagSet) *Machine {
	return &Machine{
		Name: fs.String("config", "8-way", "machine configuration: 8-way or 16-way"),
	}
}

// Config resolves the selected machine configuration.
func (m *Machine) Config() (sim.Config, error) { return sim.ConfigByName(*m.Name) }

// Plan groups the sampling-plan flags (-u, -w, -n, -j, -warming).
type Plan struct {
	U       *uint64
	W       *uint64
	N       *uint64
	J       *uint64
	Warming *string
}

// RegisterPlan installs the sampling-plan flags.
func RegisterPlan(fs *flag.FlagSet) *Plan {
	return &Plan{
		U:       fs.Uint64("u", 1000, "sampling unit size U"),
		W:       fs.Uint64("w", 0, "detailed warming W (0 = recommended for config)"),
		N:       fs.Uint64("n", 400, "number of sampling units n"),
		J:       fs.Uint64("j", 0, "systematic phase offset j (units)"),
		Warming: fs.String("warming", "functional", "warming mode: none, detailed, functional"),
	}
}

// WarmingMode parses the -warming selection.
func (p *Plan) WarmingMode() (sim.WarmingMode, error) { return ParseWarming(*p.Warming) }

// Apply copies the plan flags onto a request.
func (p *Plan) Apply(req *sim.Request) error {
	mode, err := p.WarmingMode()
	if err != nil {
		return err
	}
	req.U, req.W, req.N, req.J, req.Warming = *p.U, *p.W, *p.N, *p.J, mode
	if req.U == 0 {
		return fmt.Errorf("unit size -u must be positive")
	}
	return nil
}

// ParseWarming resolves a warming-mode name.
func ParseWarming(s string) (sim.WarmingMode, error) {
	switch s {
	case "none":
		return sim.NoWarming, nil
	case "detailed":
		return sim.DetailedWarming, nil
	case "functional":
		return sim.FunctionalWarming, nil
	}
	return 0, fmt.Errorf("unknown warming mode %q", s)
}

// Engine groups the execution flags every sampling binary shares
// (-parallel, -ckpt-dir, -ckpt-max-bytes, -keyframe, -resume-interval)
// — previously
// duplicated, drifting definitions in each main package.
type Engine struct {
	Parallel    *int
	CkptDir     *string
	CkptMax     *int64
	MemCacheMax *int64
	Keyframe    *int
	ResumeInt   *int
}

// RegisterEngine installs the execution flags.
func RegisterEngine(fs *flag.FlagSet) *Engine {
	return &Engine{
		Parallel:    fs.Int("parallel", 0, "checkpointed parallel engine workers (0 = classic serial path, -1 = all cores)"),
		CkptDir:     fs.String("ckpt-dir", "", "on-disk checkpoint store directory; sweeps are saved and reused across runs (empty = in-memory only; requires -parallel)"),
		CkptMax:     fs.Int64("ckpt-max-bytes", 0, "LRU size cap for the checkpoint store in bytes; each save evicts the least recently used entries over the cap (0 = unbounded)"),
		MemCacheMax: fs.Int64("mem-cache-bytes", 0, "LRU size cap for the in-memory sweep cache of storeless sessions, in snapshot-payload bytes (0 = unbounded; ignored with -ckpt-dir)"),
		Keyframe:    fs.Int("keyframe", 0, "full-snapshot interval of delta-encoded checkpoints: every n-th captured unit is a keyframe, units between carry dirty-block/dirty-page deltas (0 = built-in default, 1 = full snapshots only; results are identical either way)"),
		ResumeInt:   fs.Int("resume-interval", 0, "crash-safe sweep journal cadence in keyframes: with -ckpt-dir, an in-progress sweep journals its position every n keyframes so an interrupted run resumes instead of resweeping (0 = built-in default, negative = disable journaling)"),
	}
}

// SessionOptions translates the engine flags into sim.Open options,
// warning on stderr (prefixed by prog) when -ckpt-dir is combined with
// the serial path, exactly as the old binaries did.
func (e *Engine) SessionOptions(prog string) []sim.Option {
	var opts []sim.Option
	if *e.Keyframe != 0 {
		// Invalid (negative) values flow through so sim.Open reports
		// them, rather than being silently dropped here.
		opts = append(opts, sim.WithKeyframe(*e.Keyframe))
	}
	if *e.MemCacheMax != 0 {
		opts = append(opts, sim.WithMemCacheBytes(*e.MemCacheMax))
	}
	if *e.ResumeInt != 0 {
		opts = append(opts, sim.WithResumeInterval(*e.ResumeInt))
	}
	if *e.CkptDir != "" {
		if *e.Parallel == 0 {
			fmt.Fprintf(os.Stderr, "%s: -ckpt-dir requires the checkpointed engine; ignoring it on the classic serial path (set -parallel)\n", prog)
		} else {
			opts = append(opts, sim.WithStore(*e.CkptDir))
			if *e.CkptMax != 0 {
				opts = append(opts, sim.WithStoreLimit(*e.CkptMax))
			}
			opts = append(opts, sim.WithLog(func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}))
		}
	}
	return opts
}

// Apply copies the execution flags onto a request: -parallel 0 keeps
// the classic serial loop, n >= 1 runs n workers, negative one per
// core.
func (e *Engine) Apply(req *sim.Request) {
	switch {
	case *e.Parallel == 0:
		req.SerialLoop = true
	default:
		req.Workers = *e.Parallel
	}
}

// Dist groups the fleet fault-tolerance flags of the distributed
// binaries. Each role registers only its own side: the coordinator
// owns the sweep claim lease, the worker owns its heartbeat and
// journal-upload cadence; unregistered fields stay nil.
type Dist struct {
	Heartbeat *time.Duration
	Lease     *time.Duration
	ResumeInt *int
}

// RegisterDistCoordinator installs the coordinator's fault-tolerance
// flags (-lease).
func RegisterDistCoordinator(fs *flag.FlagSet) *Dist {
	return &Dist{
		Lease: fs.Duration("lease", 0, "sweep claim lease: a claimed sweep whose owner neither renews nor finishes within the lease is reclaimed by another worker, which resumes it from the owner's uploaded journal (0 = built-in default)"),
	}
}

// RegisterDistWorker installs the worker's fault-tolerance flags
// (-heartbeat, -resume-interval).
func RegisterDistWorker(fs *flag.FlagSet) *Dist {
	return &Dist{
		Heartbeat: fs.Duration("heartbeat", 0, "liveness heartbeat interval announced to the coordinator, which stops dispatching to a worker silent for 3 intervals (0 = disabled, never expired)"),
		ResumeInt: fs.Int("resume-interval", 0, "crash-safe sweep journal cadence in keyframes: a sweep owner uploads its partial journal to the coordinator every n keyframes so a successor resumes instead of resweeping (0 = built-in default, negative = disable journal uploads)"),
	}
}

// ReportStore prints the session's store hit/miss counters to stderr
// (no-op without a store), matching the old binaries' exit summary.
func ReportStore(sess *sim.Session) {
	if hits, misses, ok := sess.StoreStats(); ok {
		fmt.Fprintf(os.Stderr, "checkpoint store %s: %d hits, %d misses\n", sess.StoreDir(), hits, misses)
	}
}
