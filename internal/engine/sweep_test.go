package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/uarch"
)

// fakeJournal is an in-memory engine.Journal that records the calls the
// sweep driver makes on it, compactly: L load, R drop, a add, X close.
type fakeJournal struct {
	saved *checkpoint.ResumeState // what Load returns
	calls []string
	added int
	fail  int // Add fails on this call (1-based); 0 = never
}

func (j *fakeJournal) Load() *checkpoint.ResumeState {
	j.calls = append(j.calls, "L")
	return j.saved
}

func (j *fakeJournal) Drop(error) { j.calls = append(j.calls, "R") }

func (j *fakeJournal) Add(*checkpoint.Unit) error {
	j.calls = append(j.calls, "a")
	j.added++
	if j.added == j.fail {
		return errors.New("journal write failed")
	}
	return nil
}

func (j *fakeJournal) Close() error {
	j.calls = append(j.calls, "X")
	return nil
}

// sameUnit asserts two units describe the same launch: geometry,
// architectural state, and the materialized memory and warm state.
func sameUnit(t *testing.T, what string, a, b *checkpoint.Unit) {
	t.Helper()
	if a.Index != b.Index || a.Start != b.Start || a.LaunchAt != b.LaunchAt || a.Arch != b.Arch {
		t.Fatalf("%s: unit %d@%d vs %d@%d (or their arch state) differ", what, a.Index, a.LaunchAt, b.Index, b.LaunchAt)
	}
	al, err := a.Materialize()
	if err != nil {
		t.Fatalf("%s unit %d: %v", what, a.Index, err)
	}
	bl, err := b.Materialize()
	if err != nil {
		t.Fatalf("%s unit %d: %v", what, b.Index, err)
	}
	am, bm := al.Mem.NewMemory(), bl.Mem.NewMemory()
	if !reflect.DeepEqual(am.Pages(), bm.Pages()) {
		t.Fatalf("%s unit %d: mapped pages differ", what, a.Index)
	}
	bufA, bufB := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for _, n := range am.Pages() {
		am.ReadBytes(n*mem.PageSize, bufA)
		bm.ReadBytes(n*mem.PageSize, bufB)
		if string(bufA) != string(bufB) {
			t.Fatalf("%s unit %d: memory page %d differs", what, a.Index, n)
		}
	}
	if !reflect.DeepEqual(al.Warm, bl.Warm) {
		t.Fatalf("%s unit %d: warm state differs", what, a.Index)
	}
}

// TestSweepDriver walks engine.Sweep through each of its branches with
// an in-memory journal, asserting for every one that the emitted stream
// is checkpoint.Capture's unit for unit and that the journal saw exactly
// the expected Add/Close sequence. The plan is 12 units, each a resume
// point, so a journal cut anywhere can be fabricated. A complete sweep
// never closes its journal: the rows that complete end on their last
// Add, because retiring the journal is the caller's.
func TestSweepDriver(t *testing.T) {
	prog := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}

	var ref []*checkpoint.Unit
	whole, _, err := checkpoint.CaptureStream(context.Background(), prog, cfg, params, func(u *checkpoint.Unit) bool {
		ref = append(ref, u)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 12 {
		t.Fatalf("plan has %d units; the expected call sequences below assume 12", len(ref))
	}
	journalAt := func(n int) *checkpoint.ResumeState {
		return &checkpoint.ResumeState{Units: ref[:n], PopulationUnits: prog.Length / params.U}
	}
	// adds is n journal Adds, as calls records them.
	adds := func(n int) string { return strings.TrimSpace(strings.Repeat(" a", n)) }
	// A journal that decodes cleanly but belongs to another plan.
	poisoned := journalAt(6)
	first := *poisoned.Units[0]
	first.Index += 3
	poisoned.Units = append([]*checkpoint.Unit{&first}, poisoned.Units[1:]...)

	for _, tc := range []struct {
		name      string
		saved     *checkpoint.ResumeState
		failAdd   int // the journal's Add fails on this call; 0 = never
		stopAt    int // emit returns false on this unit (1-based); 0 = never
		cancelAt  int // ctx is cancelled while this unit is emitted; 0 = never
		want      []*checkpoint.Unit
		resumed   int // leading units emitted with resumed set
		calls     string
		resumedAt uint64
		complete  bool
		err       error
	}{
		{name: "cold", want: ref, complete: true,
			calls: "L " + adds(12)},
		{name: "resume from a valid journal", saved: journalAt(6),
			want: ref, resumed: 6, resumedAt: ref[5].LaunchAt, complete: true,
			calls: "L " + adds(12)},
		{name: "journal fails plan validation", saved: poisoned,
			want: ref, complete: true,
			calls: "L R " + adds(12)},
		{name: "journal covers every boundary", saved: journalAt(12),
			want: ref, resumed: 12, resumedAt: ref[11].LaunchAt, complete: true,
			calls: "L " + adds(12)},
		{name: "emit declines a unit", stopAt: 7, want: ref[:6],
			calls: "L " + adds(6) + " X"},
		{name: "cancelled mid-sweep", cancelAt: 7, want: ref[:7],
			calls: "L " + adds(7) + " X", err: context.Canceled},
		{name: "cancelled while feeding the journal", saved: journalAt(6), cancelAt: 3,
			want: ref[:3], resumed: 3, resumedAt: ref[5].LaunchAt,
			calls: "L " + adds(3) + " X", err: context.Canceled},
		{name: "journal write fails", failAdd: 3, want: ref, complete: true,
			calls: "L " + adds(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			j := &fakeJournal{saved: tc.saved, fail: tc.failAdd}
			var got []*checkpoint.Unit
			resumed := 0
			sum, _, err := engine.Sweep(ctx, prog, cfg, params, j, func(cu *checkpoint.Unit, res bool) bool {
				if len(got)+1 == tc.stopAt {
					return false
				}
				if res {
					if resumed != len(got) {
						t.Errorf("unit %d emitted as resumed after a newly captured one", len(got))
					}
					resumed++
				}
				got = append(got, cu)
				if len(got) == tc.cancelAt {
					cancel()
				}
				return true
			})
			if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("emitted %d units, want %d", len(got), len(tc.want))
			}
			for i := range got {
				sameUnit(t, tc.name, got[i], tc.want[i])
			}
			if resumed != tc.resumed {
				t.Errorf("%d units emitted as resumed, want %d", resumed, tc.resumed)
			}
			if calls := strings.Join(j.calls, " "); calls != tc.calls {
				t.Errorf("journal calls:\n got %q\nwant %q", calls, tc.calls)
			}
			if sum.Complete != tc.complete || sum.ResumedAt != tc.resumedAt {
				t.Errorf("summary: complete=%v resumedAt=%d, want %v and %d", sum.Complete, sum.ResumedAt, tc.complete, tc.resumedAt)
			}
			if tc.complete && (sum.SweepInsts != whole.SweepInsts || sum.Captured != len(ref)) {
				t.Errorf("summary: %d units over %d insts, uninterrupted sweep %d over %d",
					sum.Captured, sum.SweepInsts, len(ref), whole.SweepInsts)
			}
		})
	}
}
