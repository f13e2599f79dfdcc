// Package experiments regenerates every table and figure of the SMARTS
// paper's evaluation (Figures 2-8, Tables 4-6) against the synthetic
// benchmark suite and the from-scratch simulator substrate.
//
// Each experiment has a Run function returning a typed result with a
// Format method that prints rows in the shape the paper reports. A
// process-wide Context caches generated programs and full-stream
// detailed reference runs (the expensive ground truth) so that a bench
// session touching many experiments pays for each reference once.
//
// Scales: the paper's benchmarks are 2-547 billion instructions; a full
// detailed reference at that size is exactly the cost the paper exists
// to avoid. The Small scale shrinks benchmark length ~1000x while
// keeping the machine configuration (cache sizes, predictor sizes) at
// full scale, and shrinks n_init proportionally so the sampled fraction
// and the dimensionless results (CV, CI, bias, error) remain
// commensurate with the paper's. EXPERIMENTS.md tabulates paper-vs-
// measured for every experiment.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

// Scale fixes the experiment sizing knobs.
type Scale struct {
	Name string
	// BenchLen is the target dynamic length of each workload.
	BenchLen uint64
	// Chunk is the reference-run measurement granularity (and the
	// smallest sampling-unit size derivable from a reference).
	Chunk uint64
	// NInit is the initial sample size of the SMARTS procedure (the
	// paper's 10,000 at full SPEC2K scale).
	NInit uint64
	// Eps is the target relative confidence interval (paper: 0.03).
	Eps float64
	// BiasPhases is the number of systematic phases averaged for bias
	// measurements (paper Section 4.3 uses 5).
	BiasPhases int
	// SPInterval and SPMaxK configure the SimPoint baseline.
	SPInterval uint64
	SPMaxK     int
	// Benches restricts the suite (nil = every workload).
	Benches []string
}

// Small is the default scale used by tests and benches.
var Small = Scale{
	Name:       "small",
	BenchLen:   2_000_000,
	Chunk:      10,
	NInit:      400,
	Eps:        0.03,
	BiasPhases: 5,
	SPInterval: 50_000,
	SPMaxK:     10,
}

// Medium exercises longer streams (for overnight runs).
var Medium = Scale{
	Name:       "medium",
	BenchLen:   20_000_000,
	Chunk:      100,
	NInit:      2000,
	Eps:        0.03,
	BiasPhases: 5,
	SPInterval: 500_000,
	SPMaxK:     10,
}

// Tiny is for fast tests only.
var Tiny = Scale{
	Name:       "tiny",
	BenchLen:   400_000,
	Chunk:      10,
	NInit:      100,
	Eps:        0.05,
	BiasPhases: 3,
	SPInterval: 20_000,
	SPMaxK:     6,
	Benches:    []string{"gzipx", "gccx", "parserx", "eonx"},
}

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "tiny":
		return Tiny, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// BenchNames returns the workload names this scale covers.
func (s Scale) BenchNames() []string {
	if s.Benches != nil {
		return s.Benches
	}
	return program.Names()
}

// Sampler executes the sampling runs an experiment makes. The sim
// session implements it on its own path (the serial loop or the
// checkpointed engine, whichever the request asks for, with sweep
// deduplication and progress events); smarts.SerialSampler implements
// it on the in-place serial loop for tests and benchmarks.
type Sampler interface {
	// Sample runs one plan.
	Sample(ctx context.Context, p *program.Program, cfg uarch.Config, plan smarts.Plan) (*smarts.Result, error)
	// SamplePhases runs plan at every phase offset in js (plan.J is
	// ignored); results[i] corresponds to js[i].
	SamplePhases(ctx context.Context, p *program.Program, cfg uarch.Config, plan smarts.Plan, js []uint64) ([]*smarts.Result, error)
}

// Context caches programs and reference runs across experiments and
// names the Sampler their sampling runs go through. Experiments read
// it and never write it, so one Context may serve concurrent
// experiments; With gives each caller its own Sampler over a shared
// reference cache.
type Context struct {
	Scale Scale
	// Sampler executes every sampling run the experiments make.
	Sampler Sampler

	refs *refCache
}

// refCache holds the full-stream detailed references, keyed by
// bench/config.
type refCache struct {
	mu sync.Mutex
	m  map[string]*smarts.Reference
}

// NewContext builds an empty cache for the scale, sampling through s.
func NewContext(scale Scale, s Sampler) *Context {
	return &Context{Scale: scale, Sampler: s, refs: &refCache{m: make(map[string]*smarts.Reference)}}
}

// With returns a copy of c that samples through s and shares c's
// reference cache.
func (c *Context) With(s Sampler) *Context {
	cp := *c
	cp.Sampler = s
	return &cp
}

// Program returns the generated workload, building it on first use.
func (c *Context) Program(name string) (*program.Program, error) {
	return program.Get(name, c.Scale.BenchLen)
}

// samplePhases executes plan at `phases` evenly spaced offsets.
func (c *Context) samplePhases(ctx context.Context, p *program.Program, cfg uarch.Config, plan smarts.Plan, phases int) ([]*smarts.Result, error) {
	js := make([]uint64, phases)
	for ph := range js {
		js[ph] = uint64(ph) * plan.K / uint64(phases)
	}
	return c.Sampler.SamplePhases(ctx, p, cfg, plan, js)
}

// procedure executes the two-step SMARTS procedure, both steps on the
// context's Sampler.
func (c *Context) procedure(ctx context.Context, p *program.Program, cfg uarch.Config, pc smarts.ProcedureConfig) (*smarts.ProcedureResult, error) {
	return smarts.RunProcedureWith(ctx, p, cfg, pc, func(ctx context.Context, _ string, plan smarts.Plan) (*smarts.Result, error) {
		return c.Sampler.Sample(ctx, p, cfg, plan)
	})
}

// Reference returns the full-stream detailed reference for bench on cfg,
// running it on first use. This is the expensive ground-truth pass; a
// cached reference returns regardless of ctx, and a fresh one is only
// started while ctx is alive (the detailed run itself is not
// interruptible — cancellation takes effect at the next sampling step).
func (c *Context) Reference(ctx context.Context, bench string, cfg uarch.Config) (*smarts.Reference, error) {
	key := bench + "/" + cfg.Name
	c.refs.mu.Lock()
	if r, ok := c.refs.m[key]; ok {
		c.refs.mu.Unlock()
		return r, nil
	}
	c.refs.mu.Unlock()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	p, err := c.Program(bench)
	if err != nil {
		return nil, err
	}
	ref, err := smarts.FullRun(p, cfg, c.Scale.Chunk)
	if err != nil {
		return nil, fmt.Errorf("experiments: reference %s: %w", key, err)
	}

	c.refs.mu.Lock()
	defer c.refs.mu.Unlock()
	if r, ok := c.refs.m[key]; ok {
		return r, nil // lost a benign race; keep the first
	}
	c.refs.m[key] = ref
	return ref, nil
}

// Preload builds references for every benchmark of the scale in
// parallel, bounded by par workers. Experiments that consume many
// references call it first so wall-clock cost is amortized.
func (c *Context) Preload(ctx context.Context, cfg uarch.Config, par int) error {
	names := c.Scale.BenchNames()
	if par < 1 {
		par = 1
	}
	sem := make(chan struct{}, par)
	errs := make(chan error, len(names))
	for _, name := range names {
		name := name
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			_, err := c.Reference(ctx, name, cfg)
			errs <- err
		}()
	}
	for range names {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}
