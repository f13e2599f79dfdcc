package checkpoint_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// BenchmarkSweepStages breaks the capture sweep's cost per instruction
// into its stages on gccx and craftyx (warm-bound) and mcfx
// (interpret-bound), 40M instructions each (2M under -short), one whole
// program per op:
//
//	interpret     Run alone: the interpreter with nothing recorded
//	record-all    RunDyn: every instruction recorded, as ForwardBatch does
//	record-warm   RunWarm: only the instructions warming acts on, as the
//	              sweep's interpreter stage does (also records/inst)
//	warm          Warm alone over RunWarm's records, the interpreter's
//	              time excluded: the sweep's warm stage
//	warmed-sweep  CaptureStream with functional warming, both stages
//	cold-sweep    CaptureStream without warming
//
// Every stage reports ns/inst. The sweeps use cold-sparse's plan shape
// (U = 1,000, W = 2,000, k = 166) and keep no unit.
func BenchmarkSweepStages(b *testing.B) {
	length := uint64(40_000_000)
	if testing.Short() {
		length = 2_000_000
	}
	cfg := uarch.Config8Way()
	ring := make([]functional.DynRec, 4096)
	for _, name := range []string{"gccx", "craftyx", "mcfx"} {
		prog := genProg(b, name, length)
		perInst := func(b *testing.B, d time.Duration) {
			b.ReportMetric(float64(d.Nanoseconds())/float64(uint64(b.N)*prog.Length), "ns/inst")
		}
		interpret := func(b *testing.B, run func(cpu *functional.CPU) error) {
			for b.Loop() {
				cpu := functional.New(prog)
				for !cpu.Halted {
					if err := run(cpu); err != nil {
						b.Fatal(err)
					}
				}
			}
			perInst(b, b.Elapsed())
		}
		b.Run(name+"/interpret", func(b *testing.B) {
			interpret(b, func(cpu *functional.CPU) error {
				_, err := cpu.Run(checkpoint.FFChunk)
				return err
			})
		})
		b.Run(name+"/record-all", func(b *testing.B) {
			interpret(b, func(cpu *functional.CPU) error {
				_, err := cpu.RunDyn(ring, uint64(len(ring)))
				return err
			})
		})
		b.Run(name+"/record-warm", func(b *testing.B) {
			var recs int
			interpret(b, func(cpu *functional.CPU) error {
				k, _, err := cpu.RunWarm(ring, checkpoint.FFChunk, cfg.IL1.BlockBits)
				recs += k
				return err
			})
			b.ReportMetric(float64(recs)/float64(uint64(b.N)*prog.Length), "records/inst")
		})
		b.Run(name+"/warm", func(b *testing.B) {
			var warm time.Duration
			for b.Loop() {
				w := uarch.NewWarmer(uarch.NewMachine(cfg), cfg)
				cpu := functional.New(prog)
				for !cpu.Halted {
					k, _, err := cpu.RunWarm(ring, checkpoint.FFChunk, cfg.IL1.BlockBits)
					if err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					w.Warm(ring[:k])
					warm += time.Since(start)
				}
			}
			perInst(b, warm)
		})
		for _, warmed := range []bool{true, false} {
			stage := name + "/cold-sweep"
			if warmed {
				stage = name + "/warmed-sweep"
			}
			b.Run(stage, func(b *testing.B) {
				params := checkpoint.Params{U: 1000, W: 2000, K: 166, FunctionalWarm: warmed}
				for b.Loop() {
					sweep(b, prog, cfg, params)
				}
				perInst(b, b.Elapsed())
			})
		}
	}
}

// sweep runs one capture sweep of prog to its end, dropping every unit.
func sweep(b *testing.B, prog *program.Program, cfg uarch.Config, params checkpoint.Params) {
	sum, _, err := checkpoint.CaptureStream(context.Background(), prog, cfg, params, func(*checkpoint.Unit) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	if !sum.Complete || sum.Captured == 0 {
		b.Fatalf("sweep stopped after %d units", sum.Captured)
	}
}
