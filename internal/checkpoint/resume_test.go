package checkpoint_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
)

// journalSweep runs one CaptureStream journaling every captured unit
// into a fresh store writer for key, re-adding the units of rs (the
// journal being resumed) first, exactly as the engine's sweep goroutine
// does. stopAfter > 0 cuts the sweep (emit returns false) after that
// many new units. A complete sweep commits the writer, which retires
// the journal; an interrupted one closes it, keeping the journal for
// the next round.
func journalSweep(t *testing.T, prog *program.Program, cfg uarch.Config, params checkpoint.Params,
	store *checkpoint.Store, key checkpoint.Key, rs *checkpoint.ResumeState, stopAfter int,
) ([]*checkpoint.Unit, *checkpoint.Summary) {
	t.Helper()
	pw, err := store.Writer(key, prog.Length/params.U)
	if err != nil {
		t.Fatal(err)
	}
	if rs != nil {
		for _, u := range rs.Units {
			if err := pw.Add(u); err != nil {
				t.Fatal(err)
			}
		}
		params.Resume = rs
	}
	var units []*checkpoint.Unit
	sum, _, err := checkpoint.CaptureStream(context.Background(), prog, cfg, params, func(u *checkpoint.Unit) bool {
		if err := pw.Add(u); err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
		return stopAfter == 0 || len(units) < stopAfter
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Complete {
		if err := pw.Commit(sum.SweepInsts); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return units, sum
}

// TestResumeMatchesUninterruptedSweep is the resume property test: a
// sweep interrupted at randomized kill points — repeatedly, each round
// resuming from the crash-safe journal — must produce exactly the unit
// stream of an uninterrupted sweep: same launch geometry, arch state,
// memory, and warm state, and the same total sweep-instruction
// accounting. Runs warmed and cold.
func TestResumeMatchesUninterruptedSweep(t *testing.T) {
	for _, warm := range []bool{true, false} {
		name := "warm"
		if !warm {
			name = "cold"
		}
		t.Run(name, func(t *testing.T) {
			p := genProg(t, "gccx", 300_000)
			cfg := uarch.Config8Way()
			params := checkpoint.Params{U: 1000, W: 2000, K: 10, FunctionalWarm: warm, Keyframe: 4}
			whole := capture(t, p, cfg, params)
			want := whole.Units
			if len(want) < 10 {
				t.Fatalf("plan too small for kill points: %d units", len(want))
			}

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				store, err := checkpoint.OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				key := checkpoint.KeyFor(p, cfg, params)
				var rs *checkpoint.ResumeState
				for round := 0; ; round++ {
					if round > 3*len(want) {
						t.Fatal("resume never converged to a complete sweep")
					}
					prior := 0
					if rs != nil {
						prior = len(rs.Units)
					}
					stop := 0
					if remaining := len(want) - prior; remaining > 2 && rng.Intn(3) > 0 {
						stop = 1 + rng.Intn(remaining-1)
					}
					units, sum := journalSweep(t, p, cfg, params, store, key, rs, stop)

					// Every round's journal+emission must be a prefix of the
					// uninterrupted stream, bit for bit.
					combined := units
					if rs != nil {
						combined = append(append([]*checkpoint.Unit(nil), rs.Units...), units...)
					}
					if len(combined) > len(want) {
						t.Fatalf("round %d: %d units, uninterrupted sweep has %d", round, len(combined), len(want))
					}
					for i, u := range combined {
						unitsEqual(t, "resumed stream", u, want[i])
					}
					if sum.Complete {
						if len(combined) != len(want) || sum.Captured != len(want) {
							t.Fatalf("complete resumed sweep captured %d/%d units", len(combined), len(want))
						}
						if sum.SweepInsts != whole.SweepInsts {
							t.Fatalf("resumed sweep accounts %d insts, uninterrupted %d", sum.SweepInsts, whole.SweepInsts)
						}
						if rs != nil && sum.ResumedAt != rs.Units[len(rs.Units)-1].LaunchAt {
							t.Fatalf("ResumedAt %d, journal's last unit at %d", sum.ResumedAt, rs.Units[len(rs.Units)-1].LaunchAt)
						}
						// The journal is gone once the sweep completed.
						if left, err := store.LoadPartial(key); err != nil || left != nil {
							t.Fatalf("journal survived completion (rs=%v err=%v)", left != nil, err)
						}
						break
					}
					if rs, err = store.LoadPartial(key); err != nil {
						t.Fatal(err)
					}
					if rs == nil {
						t.Fatalf("round %d: interrupted sweep left no usable journal", round)
					}
				}
			}
		})
	}
}

// TestResumeRejectsInconsistentJournal: a journal that disagrees with
// the plan must fail the resume loudly — never continue from a wrong
// position.
func TestResumeRejectsInconsistentJournal(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	journalSweep(t, p, cfg, params, store, key, nil, 5)
	rs, err := store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("no journal to corrupt (rs=%v err=%v)", rs != nil, err)
	}
	rs.Units[0].Index++ // journal from a different plan geometry
	params.Resume = rs
	_, _, err = checkpoint.CaptureStream(context.Background(), p, cfg, params,
		func(*checkpoint.Unit) bool { t.Fatal("emitted a unit from an inconsistent journal"); return false })
	if err == nil {
		t.Fatal("inconsistent journal resumed without error")
	}
}

// TestPartialCorruptionDegrades sweeps truncation points and byte flips
// across a journal an interrupted sweep left. Truncation — the crash
// shape the journal exists for — and flips alike must degrade to
// exactly the units whose records end before the damage, bit-identical
// to the uninterrupted sweep's prefix, or to no journal at all; never
// to a wrong resume. The intact journal then still resumes the sweep to
// completion.
func TestPartialCorruptionDegrades(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	whole := capture(t, p, cfg, params)
	want := whole.Units

	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	journalSweep(t, p, cfg, params, store, key, nil, len(want)-2)
	path := filepath.Join(dir, key.Hash()+".partial")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, verified := verifiedBefore(t, data, key)
	if full := resumeUnits(t, store, key, data, want); full != len(want)-2 {
		t.Fatalf("intact journal resumes at %d units, want %d", full, len(want)-2)
	}

	for i := 1; i < 50; i++ {
		cut := len(data) * i / 50
		if got, exact := resumeUnits(t, store, key, data[:cut], want), verified(cut); got != exact {
			t.Fatalf("truncation at %d bytes: journal resumes at %d units, want %d", cut, got, exact)
		}
	}
	for i := 0; i < 60; i++ {
		off := 12 + (len(data)-13)*i/60
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if got, exact := resumeUnits(t, store, key, mut, want), verified(off); got != exact {
			t.Fatalf("flip at %d: journal resumes at %d units, want %d", off, got, exact)
		}
	}

	// Restore the intact journal and finish the sweep from it: the
	// corruption sweep must not have poisoned the real resume.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("intact journal unusable after sweep (rs=%v err=%v)", rs != nil, err)
	}
	units, sum := journalSweep(t, p, cfg, params, store, key, rs, 0)
	if !sum.Complete {
		t.Fatal("resumed sweep did not complete")
	}
	combined := append(append([]*checkpoint.Unit(nil), rs.Units...), units...)
	if len(combined) != len(want) {
		t.Fatalf("resumed sweep produced %d units, want %d", len(combined), len(want))
	}
	for i, u := range combined {
		unitsEqual(t, "post-corruption resume", u, want[i])
	}
}
