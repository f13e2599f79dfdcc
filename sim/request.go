package sim

import (
	"fmt"
	"io"
)

// Request describes one unit of work for Session.Run: a sampling run,
// a multi-offset phase run, a two-step procedure, or an experiment.
// Build one with NewRequest / NewExperiment and functional options;
// the zero values of unset fields select the session defaults noted on
// each field.
type Request struct {
	// Workload names the synthetic workload (see Workloads). Required
	// for every mode except experiments.
	Workload string
	// Length is the workload's target dynamic instruction count
	// (default 2,000,000). Generated workloads are cached per
	// (name, length) for the whole process, shared by every session.
	Length uint64

	// Config is the simulated machine; a zero Config selects the
	// paper's 8-way baseline.
	Config Config

	// U is the sampling unit size (default 1000 instructions).
	U uint64
	// W is the detailed-warming length (default RecommendedW(Config)).
	W uint64
	// N is the target number of measured units; the sampling interval
	// k is derived from it (PlanForN). Ignored when K is set directly.
	// Default 400.
	N uint64
	// K, when nonzero, fixes the systematic sampling interval
	// directly instead of deriving it from N.
	K uint64
	// J is the systematic phase offset in units.
	J uint64
	// Offsets, when non-empty, requests a multi-offset phase run: the
	// plan is executed at each offset, all phases measured from one
	// shared functional sweep. J is ignored.
	Offsets []uint64
	// Warming selects the fast-forward warming mode. NewRequest
	// defaults it to FunctionalWarming (the paper's recommendation);
	// the type's zero value is NoWarming, so literal Requests start
	// cold unless set.
	Warming WarmingMode
	// MaxUnits, when nonzero, caps the number of measured units.
	MaxUnits int

	// Workers sets the replay worker-pool size: 0 selects the session
	// default, negative one worker per core. Ignored by SerialLoop
	// runs. Results are bit-identical for every worker count.
	Workers int
	// SerialLoop selects the classic in-place serial loop instead of
	// the checkpointed engine: units observe state carried out of the
	// previous unit's detailed simulation, reproducing the paper's
	// original execution (and the repo's historical serial results)
	// exactly. The checkpoint store and sweep deduplication do not
	// apply.
	SerialLoop bool
	// NoStore bypasses the session's checkpoint store for this run.
	NoStore bool

	// Alpha is the confidence parameter for reported estimates (default
	// Alpha997).
	Alpha float64

	// Procedure, when non-nil, runs the paper's two-step estimation
	// procedure (Section 5.1) instead of a single plan: an initial run
	// at n_init = N, then — if the target interval is missed — a rerun
	// at n_tuned derived from the measured coefficient of variation.
	Procedure *ProcedureSpec

	// Experiment, when non-empty, regenerates one of the paper's
	// figures or tables (see ExperimentNames); Scale picks the sizing
	// ("tiny", "small", "medium"; default "small"). Workload and plan
	// fields are ignored.
	Experiment string
	Scale      string
	// Output, when non-nil, receives the experiment's formatted rows
	// incrementally as they are computed (long experiments stream);
	// Report.ExperimentOutput always carries the full text as well.
	Output io.Writer

	// Progress, when non-nil, receives this run's progress events (in
	// addition to any session-level callback).
	Progress ProgressFunc
}

// ProcedureSpec parameterizes the two-step procedure. Zero fields use
// the paper's recommendations (Eps ±3%, Alpha 99.7%, overshoot 1.2).
type ProcedureSpec struct {
	Eps       float64
	Alpha     float64
	Overshoot float64
}

// RequestOption mutates a Request under construction.
type RequestOption func(*Request)

// NewRequest builds a sampling request for the named workload with
// the paper's recommended defaults (functional warming; U, W, and N
// filled at run time from the session and machine).
func NewRequest(workload string, opts ...RequestOption) *Request {
	req := &Request{Workload: workload, Warming: FunctionalWarming}
	for _, opt := range opts {
		opt(req)
	}
	return req
}

// NewExperiment builds a request that regenerates the named experiment
// (one of ExperimentNames) at the default scale.
func NewExperiment(name string, opts ...RequestOption) *Request {
	req := &Request{Experiment: name}
	for _, opt := range opts {
		opt(req)
	}
	return req
}

// Length sets the workload's target dynamic instruction count.
func Length(n uint64) RequestOption { return func(r *Request) { r.Length = n } }

// Units targets n measured sampling units (the interval k is derived).
func Units(n uint64) RequestOption { return func(r *Request) { r.N = n } }

// UnitSize sets the sampling unit size U.
func UnitSize(u uint64) RequestOption { return func(r *Request) { r.U = u } }

// Warmup sets the detailed-warming length W.
func Warmup(w uint64) RequestOption { return func(r *Request) { r.W = w } }

// Warming selects the fast-forward warming mode.
func Warming(m WarmingMode) RequestOption {
	return func(r *Request) { r.Warming = m }
}

// Interval fixes the systematic sampling interval k directly.
func Interval(k uint64) RequestOption { return func(r *Request) { r.K = k } }

// Phase sets the systematic phase offset j.
func Phase(j uint64) RequestOption { return func(r *Request) { r.J = j } }

// Phases requests a multi-offset run measuring every listed offset
// from one shared sweep.
func Phases(js ...uint64) RequestOption {
	return func(r *Request) { r.Offsets = append([]uint64(nil), js...) }
}

// MaxUnits caps the number of measured units.
func MaxUnits(n int) RequestOption { return func(r *Request) { r.MaxUnits = n } }

// Machine sets the simulated machine configuration.
func Machine(cfg Config) RequestOption { return func(r *Request) { r.Config = cfg } }

// Workers sets the replay worker-pool size for this run (negative: one
// per core).
func Workers(n int) RequestOption { return func(r *Request) { r.Workers = n } }

// SerialLoop selects the classic in-place serial loop (see
// Request.SerialLoop).
func SerialLoop() RequestOption { return func(r *Request) { r.SerialLoop = true } }

// NoStore bypasses the session's checkpoint store for this run.
func NoStore() RequestOption { return func(r *Request) { r.NoStore = true } }

// Confidence sets the confidence parameter alpha for estimates.
func Confidence(alpha float64) RequestOption { return func(r *Request) { r.Alpha = alpha } }

// Calibrate runs the two-step procedure targeting a ±eps interval
// (eps 0 uses the paper's ±3%); N becomes n_init.
func Calibrate(eps float64) RequestOption {
	return func(r *Request) { r.Procedure = &ProcedureSpec{Eps: eps} }
}

// Procedure runs the two-step procedure with an explicit spec.
func Procedure(spec ProcedureSpec) RequestOption {
	return func(r *Request) { r.Procedure = &spec }
}

// AtScale picks the experiment scale ("tiny", "small", "medium").
func AtScale(name string) RequestOption { return func(r *Request) { r.Scale = name } }

// StreamTo streams an experiment's formatted output to w as it is
// computed.
func StreamTo(w io.Writer) RequestOption { return func(r *Request) { r.Output = w } }

// OnProgress attaches a per-request progress callback.
func OnProgress(fn ProgressFunc) RequestOption { return func(r *Request) { r.Progress = fn } }

// validate rejects contradictory requests before any work starts.
func (r *Request) validate() error {
	if r == nil {
		return fmt.Errorf("sim: nil request")
	}
	// Confidence parameters are validated at the front door: they are
	// consumed deep inside the engine's stream-order fold, where an
	// out-of-range alpha would otherwise panic mid-run.
	if r.Alpha != 0 && (r.Alpha <= 0 || r.Alpha >= 1) {
		return fmt.Errorf("sim: confidence parameter %v outside (0,1)", r.Alpha)
	}
	if r.Procedure != nil && r.Procedure.Alpha != 0 && (r.Procedure.Alpha <= 0 || r.Procedure.Alpha >= 1) {
		return fmt.Errorf("sim: procedure confidence parameter %v outside (0,1)", r.Procedure.Alpha)
	}
	// Zero selects the paper's ±3%; anything else must be a relative
	// interval in (0,1), or the tuned run's size is undefined.
	if r.Procedure != nil && r.Procedure.Eps != 0 && !(r.Procedure.Eps > 0 && r.Procedure.Eps < 1) {
		return fmt.Errorf("sim: procedure target interval %v outside (0,1)", r.Procedure.Eps)
	}
	if r.Experiment != "" {
		if r.Workload != "" {
			return fmt.Errorf("sim: request names both an experiment (%q) and a workload (%q)", r.Experiment, r.Workload)
		}
		if r.Procedure != nil {
			return fmt.Errorf("sim: experiment request cannot also run a procedure")
		}
		return nil
	}
	if r.Workload == "" {
		return fmt.Errorf("sim: request names no workload")
	}
	if r.Procedure != nil && len(r.Offsets) > 0 {
		return fmt.Errorf("sim: procedure request cannot also sweep phase offsets")
	}
	return nil
}
