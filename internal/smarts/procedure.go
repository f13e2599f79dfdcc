package smarts

import (
	"context"
	"fmt"

	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// ProcedureConfig parameterizes the paper's exact estimation procedure
// (Section 5.1): pick W and U, run once with a generic n_init, check the
// achieved confidence, and if insufficient rerun with n_tuned derived
// from the measured coefficient of variation.
type ProcedureConfig struct {
	// U is the sampling unit size; the paper recommends 1000.
	U uint64
	// W is the detailed-warming length; zero selects RecommendedW.
	W uint64
	// Warming is the fast-forward mode; the paper recommends functional
	// warming whenever possible.
	Warming WarmingMode
	// NInit is the initial sample size (the paper uses 10,000; scaled
	// studies use less).
	NInit uint64
	// Alpha sets the confidence level 1-Alpha (paper: 0.003).
	Alpha float64
	// Eps is the target relative confidence interval (paper: ±3%).
	Eps float64
	// Overshoot inflates n_tuned slightly, as the paper suggests when
	// the initial run misses badly. 1 disables.
	Overshoot float64
	// J is the systematic phase offset in units.
	J uint64
}

// DefaultProcedure returns the paper's recommended settings, with n_init
// scaled to the benchmark population (10,000 at full SPEC2K scale).
func DefaultProcedure(cfg uarch.Config, nInit uint64) ProcedureConfig {
	return ProcedureConfig{
		U:         1000,
		W:         RecommendedW(cfg),
		Warming:   FunctionalWarming,
		NInit:     nInit,
		Alpha:     stats.Alpha997,
		Eps:       0.03,
		Overshoot: 1.2,
	}
}

// ProcedureResult reports both steps of the procedure.
type ProcedureResult struct {
	// Initial is the n_init sampling run.
	Initial *Result
	// InitialCPI is its CPI estimate.
	InitialCPI stats.Estimate
	// Tuned is the second run, nil when the initial run met the target.
	Tuned *Result
	// TunedCPI is the second run's estimate (zero value when unused).
	TunedCPI stats.Estimate
	// NTuned is the sample size computed for the second run (0 if none).
	NTuned uint64
}

// Final returns the estimate the procedure ends with.
func (pr *ProcedureResult) Final() stats.Estimate {
	if pr.Tuned != nil {
		return pr.TunedCPI
	}
	return pr.InitialCPI
}

// FinalResult returns the sampling run the final estimate came from.
func (pr *ProcedureResult) FinalResult() *Result {
	if pr.Tuned != nil {
		return pr.Tuned
	}
	return pr.Initial
}

// ProcedureRunner executes one sampling step of the two-step procedure.
// stage is "initial" for the n_init run and "tuned" for the
// recalibrated second run. How the step executes is the runner's
// business: SerialLoop, RunSampledContext under some engine.Options, or
// the sim session's runner, which layers sweep deduplication and
// progress events over the same execution.
type ProcedureRunner func(ctx context.Context, stage string, plan Plan) (*Result, error)

// RunProcedureWith executes the two-step SMARTS procedure on prog/cfg,
// running each sampling step through run. The n-calibration logic —
// n_init run, confidence check, n_tuned sizing, rerun — lives only
// here, whichever runner executes the steps. The context is handed to
// both steps and checked between them, so a cancelled procedure stops
// mid-calibration and returns ctx.Err().
func RunProcedureWith(ctx context.Context, prog *program.Program, cfg uarch.Config, pc ProcedureConfig, run ProcedureRunner) (*ProcedureResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pc.U == 0 {
		pc.U = 1000
	}
	if pc.W == 0 {
		pc.W = RecommendedW(cfg)
	}
	if pc.NInit == 0 {
		return nil, fmt.Errorf("smarts: procedure requires NInit")
	}
	if pc.Alpha == 0 {
		pc.Alpha = stats.Alpha997
	}
	if pc.Eps == 0 {
		pc.Eps = 0.03
	}

	plan := PlanForN(prog.Length, pc.U, pc.W, pc.NInit, pc.Warming, pc.J)
	initial, err := run(ctx, "initial", plan)
	if err != nil {
		if ctx.Err() != nil && err == ctx.Err() {
			return nil, err
		}
		return nil, fmt.Errorf("smarts: initial run: %w", err)
	}
	pr := &ProcedureResult{
		Initial:    initial,
		InitialCPI: initial.CPIEstimate(pc.Alpha),
	}
	if pr.InitialCPI.Meets(pc.Eps) {
		return pr, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Second step: size the sample from the measured V̂ and rerun.
	pr.NTuned = stats.TunedN(pr.InitialCPI.CV, pc.Alpha, pc.Eps, pc.Overshoot)
	units := prog.Length / pc.U
	if pr.NTuned > units {
		pr.NTuned = units // cannot sample more units than exist
	}
	plan2 := PlanForN(prog.Length, pc.U, pc.W, pr.NTuned, pc.Warming, pc.J)
	tuned, err := run(ctx, "tuned", plan2)
	if err != nil {
		if ctx.Err() != nil && err == ctx.Err() {
			return nil, err
		}
		return nil, fmt.Errorf("smarts: tuned run: %w", err)
	}
	pr.Tuned = tuned
	pr.TunedCPI = tuned.CPIEstimate(pc.Alpha)
	return pr, nil
}
