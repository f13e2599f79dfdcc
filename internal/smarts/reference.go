package smarts

import (
	"fmt"
	"time"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Reference is the ground truth for one benchmark/configuration pair: a
// full-stream detailed simulation with cycle and energy readings at
// fixed chunk boundaries. It plays the role of the paper's
// full-benchmark cycle-by-cycle commit traces (Section 3.2), from which
// both true CPI/EPI and the coefficient-of-variation curves of Figure 2
// are derived.
type Reference struct {
	// Bench and Config identify the pair.
	Bench, Config string
	// Insts is the simulated instruction count.
	Insts uint64
	// Cycles and EnergyNJ are the full-run totals.
	Cycles   uint64
	EnergyNJ float64
	// Chunk is the boundary granularity in instructions.
	Chunk uint64
	// CumCycles[i] is the cycle count after (i+1)*Chunk instructions
	// committed; CumEnergy likewise.
	CumCycles []uint64
	CumEnergy []float64
	// DetailedTime is the wall-clock cost of the run.
	DetailedTime time.Duration
}

// TrueCPI returns the full-stream CPI.
func (r *Reference) TrueCPI() float64 { return float64(r.Cycles) / float64(r.Insts) }

// TrueEPI returns the full-stream EPI in nJ.
func (r *Reference) TrueEPI() float64 { return r.EnergyNJ / float64(r.Insts) }

// UnitCPIs returns the per-unit CPI population at sampling-unit size u,
// which must be a multiple of the chunk size. The ragged tail is
// dropped.
func (r *Reference) UnitCPIs(u uint64) ([]float64, error) {
	if u == 0 || u%r.Chunk != 0 {
		return nil, fmt.Errorf("smarts: unit size %d not a multiple of chunk %d", u, r.Chunk)
	}
	stride := int(u / r.Chunk)
	n := len(r.CumCycles) / stride
	if n == 0 {
		return nil, fmt.Errorf("smarts: unit size %d exceeds reference length", u)
	}
	out := make([]float64, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		c := r.CumCycles[(i+1)*stride-1]
		out[i] = float64(c-prev) / float64(u)
		prev = c
	}
	return out, nil
}

// UnitEPIs returns the per-unit EPI population at unit size u.
func (r *Reference) UnitEPIs(u uint64) ([]float64, error) {
	if u == 0 || u%r.Chunk != 0 {
		return nil, fmt.Errorf("smarts: unit size %d not a multiple of chunk %d", u, r.Chunk)
	}
	stride := int(u / r.Chunk)
	n := len(r.CumEnergy) / stride
	if n == 0 {
		return nil, fmt.Errorf("smarts: unit size %d exceeds reference length", u)
	}
	out := make([]float64, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		e := r.CumEnergy[(i+1)*stride-1]
		out[i] = (e - prev) / float64(u)
		prev = e
	}
	return out, nil
}

// CVAtU returns the coefficient of variation of per-unit CPI at unit
// size u — one point of the paper's Figure 2.
func (r *Reference) CVAtU(u uint64) (float64, error) {
	pop, err := r.UnitCPIs(u)
	if err != nil {
		return 0, err
	}
	return stats.CVOf(pop), nil
}

// FullRun performs the full-stream detailed simulation of prog on cfg,
// recording chunk-boundary marks.
func FullRun(prog *program.Program, cfg uarch.Config, chunk uint64) (*Reference, error) {
	if chunk == 0 {
		chunk = 10
	}
	cpu := functional.New(prog)
	machine := uarch.NewMachine(cfg)
	core := uarch.NewCore(machine)
	src := &uarch.Source{CPU: cpu}

	nChunks := prog.Length / chunk
	marks := make([]uarch.Mark, nChunks)
	for i := range marks {
		marks[i].At = uint64(i+1) * chunk
	}
	start := time.Now()
	runStats, err := core.Run(src, prog.Length, marks)
	if err != nil {
		return nil, fmt.Errorf("smarts: full run: %w", err)
	}
	ref := &Reference{
		Bench:        prog.Name,
		Config:       cfg.Name,
		Insts:        runStats.Insts,
		Cycles:       runStats.Cycles,
		EnergyNJ:     runStats.EnergyNJ,
		Chunk:        chunk,
		CumCycles:    make([]uint64, len(marks)),
		CumEnergy:    make([]float64, len(marks)),
		DetailedTime: time.Since(start),
	}
	// The machine and core are fresh, so the meter and cycle counter both
	// started at zero: mark readings are already run-relative.
	for i, m := range marks {
		ref.CumCycles[i] = m.Cycle
		ref.CumEnergy[i] = m.EnergyNJ
	}
	return ref, nil
}

// FunctionalRunTime measures the wall-clock time of a pure functional
// simulation of prog (the paper's sim-fast baseline in Table 6).
func FunctionalRunTime(prog *program.Program) (time.Duration, uint64, error) {
	cpu := functional.New(prog)
	start := time.Now()
	n, err := cpu.RunToCompletion()
	return time.Since(start), n, err
}

// FunctionalWarmingRunTime measures the wall-clock time of functional
// simulation with warming of prog on cfg's structures (the S_FW rate of
// the paper's Section 3.4).
func FunctionalWarmingRunTime(prog *program.Program, cfg uarch.Config) (time.Duration, uint64, error) {
	cpu := functional.New(prog)
	machine := uarch.NewMachine(cfg)
	w := uarch.NewWarmer(machine, cfg)
	start := time.Now()
	err := w.ForwardBatch(cpu, prog.Length)
	return time.Since(start), cpu.Count, err
}
