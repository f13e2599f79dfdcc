package dist

// Coordinator crash/recovery matrix: the write-ahead run journal, the
// restarted coordinator's replay, the client's re-attach, and the
// end-to-end integrity seals. Every scenario asserts the re-attached
// client's final report bit-identical to the local engine and, where
// the journal bounds work, that the fleet did not redo journaled
// replay.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/sim"
)

func testJournalHeader(id string) journalRun {
	return journalRun{
		ID:    id,
		Req:   wireRequest{Workload: testBench, Length: testLen, U: 10_000},
		Spec:  runSpec{Workload: testBench, Length: testLen, Plan: sim.Plan{U: 10_000, W: 2_000}},
		Total: 60,
		Pop:   60,
	}
}

func sealedUnit(seq int) wireUnit {
	u := wireUnit{Seq: seq, Index: uint64(seq) * 7, Cycles: 1000 + uint64(seq),
		EnergyNJ: 1.5, CPI: 0.9, EPI: 2.1, Warming: 42}
	u.Digest = u.digest()
	return u
}

func mustEncode(t *testing.T, ln journalLine) []byte {
	t.Helper()
	b, err := encodeJournalLine(ln)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunJournalParse drives parseRunJournal through the defect matrix:
// every corruption degrades to the longest valid prefix, never a wrong
// or resurrected record.
func TestRunJournalParse(t *testing.T) {
	hdr := testJournalHeader("r-parse")
	u1, u2 := sealedUnit(0), sealedUnit(1)
	dn := journalDone{Idx: 1, Done: shardDone{Captured: 60, Population: 60, Swept: true}}
	var good bytes.Buffer
	good.Write(mustEncode(t, journalLine{Run: &hdr}))
	good.Write(mustEncode(t, journalLine{Shards: []journalShard{{Lo: 0, Hi: 30, Idx: 0}, {Lo: 30, Hi: 60, Idx: 1}}}))
	good.Write(mustEncode(t, journalLine{Unit: &u1}))
	good.Write(mustEncode(t, journalLine{Unit: &u2}))
	good.Write(mustEncode(t, journalLine{Done: &dn}))

	rec, ok := parseRunJournal(good.Bytes())
	if !ok || rec.hdr.ID != "r-parse" || len(rec.shards) != 2 || len(rec.units) != 2 || len(rec.dones) != 1 {
		t.Fatalf("clean journal: ok=%v hdr=%q shards=%d units=%d dones=%d",
			ok, rec.hdr.ID, len(rec.shards), len(rec.units), len(rec.dones))
	}
	if rec.units[1] != u2 || rec.dones[0].Idx != 1 {
		t.Fatal("clean journal: recovered records differ from written ones")
	}

	t.Run("torn tail", func(t *testing.T) {
		torn := append(append([]byte(nil), good.Bytes()...), mustEncode(t, journalLine{Unit: &u1})[:17]...)
		rec, ok := parseRunJournal(torn)
		if !ok || len(rec.units) != 2 || len(rec.dones) != 1 {
			t.Fatalf("torn tail: ok=%v units=%d dones=%d, want full prefix", ok, len(rec.units), len(rec.dones))
		}
	})
	t.Run("corrupt line checksum", func(t *testing.T) {
		data := append([]byte(nil), good.Bytes()...)
		// Flip a byte inside the THIRD line's JSON (the first unit).
		third := bytes.Index(data, []byte(`"unit"`))
		data[third+10] ^= 0x40
		rec, ok := parseRunJournal(data)
		if !ok || len(rec.units) != 0 || len(rec.shards) != 2 {
			t.Fatalf("corrupt line: ok=%v units=%d shards=%d, want prefix ending before the bad unit",
				ok, len(rec.units), len(rec.shards))
		}
	})
	t.Run("spliced second header", func(t *testing.T) {
		hdr2 := testJournalHeader("r-impostor")
		data := append(append([]byte(nil), good.Bytes()...), mustEncode(t, journalLine{Run: &hdr2})...)
		rec, ok := parseRunJournal(data)
		if !ok || rec.hdr.ID != "r-parse" || len(rec.units) != 2 {
			t.Fatalf("spliced header: ok=%v hdr=%q units=%d, want original prefix", ok, rec.hdr.ID, len(rec.units))
		}
	})
	t.Run("unit digest mismatch", func(t *testing.T) {
		bad := sealedUnit(5)
		bad.Cycles ^= 1 // valid line checksum, corrupt measurement
		data := append(append([]byte(nil), good.Bytes()...), mustEncode(t, journalLine{Unit: &bad})...)
		data = append(data, mustEncode(t, journalLine{Unit: &u1})...) // after the defect: must not be trusted
		rec, ok := parseRunJournal(data)
		if !ok || len(rec.units) != 2 {
			t.Fatalf("digest mismatch: ok=%v units=%d, want prefix without the corrupt unit", ok, len(rec.units))
		}
	})
	t.Run("no header", func(t *testing.T) {
		if _, ok := parseRunJournal(mustEncode(t, journalLine{Unit: &u1})); ok {
			t.Fatal("headerless journal parsed as recoverable")
		}
	})
}

// TestRunJournalWriteLoad round-trips a journal through the append path
// and the directory loader, including the remove-on-terminal contract.
func TestRunJournalWriteLoad(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournalHeader("r-wl")
	j, err := writeRunJournal(dir, hdr.ID, nil, journalLine{Run: &hdr})
	if err != nil {
		t.Fatal(err)
	}
	u := sealedUnit(3)
	j.append(journalLine{Shards: []journalShard{{Lo: 0, Hi: 60, Idx: 0}}})
	j.append(journalLine{Unit: &u})
	j.close()

	runs := loadRunJournals(dir, nil)
	if len(runs) != 1 || runs[0].hdr.ID != hdr.ID || len(runs[0].units) != 1 || runs[0].units[0] != u {
		t.Fatalf("load after close: %d run(s), want the appended journal back", len(runs))
	}

	// Garbage appended after a crash parses back to the same prefix, and
	// compaction (journalLines → writeRunJournal) drops it from disk.
	path := runJournalPath(dir, hdr.ID)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("deadbeef {\"unit\":")
	f.Close()
	runs = loadRunJournals(dir, nil)
	if len(runs) != 1 || len(runs[0].units) != 1 {
		t.Fatalf("load with torn tail: got %d run(s), want the valid prefix", len(runs))
	}
	j2, err := writeRunJournal(dir, hdr.ID, nil, runs[0].journalLines()...)
	if err != nil {
		t.Fatal(err)
	}
	if again := loadRunJournals(dir, nil); len(again) != 1 || len(again[0].units) != 1 {
		t.Fatal("compacted journal does not reload")
	}
	j2.remove()
	if left := loadRunJournals(dir, nil); len(left) != 0 {
		t.Fatalf("journal survives remove: %d run(s)", len(left))
	}
}

// recoverableCluster is a loopback fleet whose coordinator can be
// "restarted": the public URL stays fixed while the handler behind it
// swaps to a fresh NewCoordinator over the same store directory —
// exactly a process restart on the same port, as clients and workers
// observe it.
type recoverableCluster struct {
	t        *testing.T
	storeDir string
	url      string

	mu      sync.Mutex
	coord   *Coordinator
	handler http.Handler

	workers []*Worker
}

func newRecoverableCluster(t *testing.T, copt Options, nWorkers int) *recoverableCluster {
	t.Helper()
	rc := &recoverableCluster{t: t, storeDir: copt.StoreDir}
	coord, err := NewCoordinator(copt)
	if err != nil {
		t.Fatal(err)
	}
	rc.coord, rc.handler = coord, coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rc.mu.Lock()
		h := rc.handler
		rc.mu.Unlock()
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	rc.url = srv.URL

	hbCtx, hbCancel := context.WithCancel(context.Background())
	t.Cleanup(hbCancel)
	for i := 0; i < nWorkers; i++ {
		var h http.Handler
		wsrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(wsrv.Close)
		w := NewWorker(WorkerOptions{
			Coordinator:  srv.URL,
			Self:         wsrv.URL,
			Workers:      1,
			PollInterval: 5 * time.Millisecond,
			RetryBase:    time.Millisecond,
			Heartbeat:    20 * time.Millisecond,
		})
		h = w.Handler()
		if err := w.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The heartbeat loop is the re-registration path: a restarted
		// coordinator 404s the beat, and the worker re-registers.
		go w.Heartbeat(hbCtx)
		rc.workers = append(rc.workers, w)
	}
	return rc
}

// awaitKillAndRestart blocks until the current coordinator dies
// (FaultKillCoordinator), then installs a fresh incarnation over the
// same store directory behind the same URL.
func (rc *recoverableCluster) awaitKillAndRestart(copt Options) error {
	rc.mu.Lock()
	dead := rc.coord
	rc.mu.Unlock()
	for !dead.killed() {
		time.Sleep(time.Millisecond)
	}
	copt.StoreDir = rc.storeDir
	next, err := NewCoordinator(copt)
	if err != nil {
		return err
	}
	rc.mu.Lock()
	rc.coord, rc.handler = next, next.Handler()
	rc.mu.Unlock()
	return nil
}

func (rc *recoverableCluster) replayedTotal() uint64 {
	var n uint64
	for _, w := range rc.workers {
		n += w.ReplayedUnits()
	}
	return n
}

// TestCoordinatorKillRecovery is the tentpole e2e, swept across kill
// points from the first merged unit to deep in the stream: the
// coordinator dies mid-run, a fresh incarnation over the same store
// recovers the journaled run, the workers re-register via bounced
// heartbeats, the client re-attaches — and the final report is
// bit-identical with the journaled merge prefix never re-replayed.
func TestCoordinatorKillRecovery(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)
	total := len(want.Units)

	for _, after := range []int{0, 7, 25, 55} {
		t.Run(fmt.Sprintf("kill-after-%d", after), func(t *testing.T) {
			f := NewFaults()
			rc := newRecoverableCluster(t, Options{StoreDir: t.TempDir(), Faults: f}, 2)
			f.Arm(FaultKillCoordinator, after, 1)

			restartErr := make(chan error, 1)
			go func() { restartErr <- rc.awaitKillAndRestart(Options{}) }()

			client := NewClient(rc.url)
			client.RetryBase = time.Millisecond
			client.RetryMax = 50 * time.Millisecond

			var reattaches atomic.Int32
			runReq := testRequest()
			runReq.Progress = func(ev sim.Progress) {
				if ev.Kind == sim.EventReattach {
					reattaches.Add(1)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := client.Run(ctx, runReq)
			if err != nil {
				t.Fatalf("run across coordinator restart: %v", err)
			}
			if err := <-restartErr; err != nil {
				t.Fatalf("restart: %v", err)
			}
			sameMeasurement(t, "recovered run", rep.Result(), want)
			if n := f.Fired(FaultKillCoordinator); n != 1 {
				t.Fatalf("kill-coordinator fired %d times, want 1", n)
			}
			if reattaches.Load() == 0 {
				t.Fatal("client never re-attached: the kill cannot have severed the stream")
			}
			// The journal bounds replay work: the >= after+1 units merged
			// (journaled) before the kill are never re-dispatched, so the
			// fleet replays strictly less than two full runs.
			if n := rc.replayedTotal(); n > uint64(2*total-(after+1)) {
				t.Fatalf("fleet replayed %d units across the crash, want <= %d (journaled prefix re-run?)",
					n, 2*total-(after+1))
			}
		})
	}
}

// TestCorruptFrameQuarantine injects a bit flip into a streamed unit
// AFTER its digest was sealed: the coordinator must detect the
// mismatch, quarantine the offending worker (stickily), requeue the
// shard's unverified suffix to the survivor, and still produce the
// bit-identical report.
func TestCorruptFrameQuarantine(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	f := NewFaults()
	cl := newFaultCluster(t, Options{}, []WorkerOptions{{Faults: f}, {}})
	f.Arm(FaultCorruptFrame, 5, 1)

	var quarantines atomic.Int32
	req.Progress = func(ev sim.Progress) {
		if ev.Kind == sim.EventQuarantine {
			quarantines.Add(1)
		}
	}
	rep, err := cl.coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "quarantine run", rep.Result(), want)
	if n := f.Fired(FaultCorruptFrame); n != 1 {
		t.Fatalf("corrupt-frame fired %d times, want 1", n)
	}
	if n := quarantines.Load(); n != 1 {
		t.Fatalf("saw %d EventQuarantine events, want 1", n)
	}
	if n := len(cl.coord.liveWorkers()); n != 1 {
		t.Fatalf("%d live workers after quarantine, want 1 (offender evicted)", n)
	}
	// Quarantine is sticky: a revive-by-registration must not clear it.
	for _, w := range cl.coord.workers {
		if w.quarantined {
			w.beat()
			if w.alive() {
				t.Fatal("beat revived a quarantined worker")
			}
		}
	}
}

// TestCorruptJournalUnitRecovery corrupts one journaled unit's bytes on
// disk between incarnations: recovery must stop trusting the journal at
// the defect and re-run the suffix, still bit-identical.
func TestCorruptJournalUnitRecovery(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)
	total := len(want.Units)

	f := NewFaults()
	dir := t.TempDir()
	rc := newRecoverableCluster(t, Options{StoreDir: dir, Faults: f}, 2)
	f.Arm(FaultKillCoordinator, 20, 1)

	restartErr := make(chan error, 1)
	go func() {
		rc.mu.Lock()
		dead := rc.coord
		rc.mu.Unlock()
		for !dead.killed() {
			time.Sleep(time.Millisecond)
		}
		// Corrupt the tail of every journal: flip one byte in the last
		// full line's JSON payload.
		for _, rec := range loadRunJournals(dir, nil) {
			path := runJournalPath(dir, rec.hdr.ID)
			data, err := os.ReadFile(path)
			if err != nil || len(data) < 2 {
				continue
			}
			data[len(data)-3] ^= 0x01
			os.WriteFile(path, data, 0o644)
		}
		restartErr <- rc.awaitKillAndRestart(Options{})
	}()

	client := NewClient(rc.url)
	client.RetryBase = time.Millisecond
	client.RetryMax = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := client.Run(ctx, testRequest())
	if err != nil {
		t.Fatalf("run across restart with corrupted journal: %v", err)
	}
	if err := <-restartErr; err != nil {
		t.Fatalf("restart: %v", err)
	}
	sameMeasurement(t, "corrupt-journal recovery", rep.Result(), want)
	if n := rc.replayedTotal(); n > uint64(2*total) {
		t.Fatalf("fleet replayed %d units, want <= %d", n, 2*total)
	}
}

// TestChaosSoak (env-gated: DIST_CHAOS_SOAK=1) runs the crash matrix
// repeatedly with a deterministically varied kill point and a worker
// kill layered on top — the long-haul confidence check CI runs on its
// chaos job.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("DIST_CHAOS_SOAK") == "" {
		t.Skip("set DIST_CHAOS_SOAK=1 to run the chaos soak")
	}
	req := testRequest()
	want := baseline(t, req)

	for round := 0; round < 6; round++ {
		round := round
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			cf := NewFaults()
			wf := NewFaults()
			rc := newRecoverableCluster(t, Options{StoreDir: t.TempDir(), Faults: cf}, 2)
			rc.workers[0].opt.Faults = wf
			// Deterministic spread of kill points across rounds; every other
			// round also severs a worker stream mid-flight.
			cf.Arm(FaultKillCoordinator, (round*17)%50, 1)
			if round%2 == 1 {
				wf.Arm(FaultKillMidStream, (round*5)%20, 1)
			}

			restartErr := make(chan error, 1)
			go func() { restartErr <- rc.awaitKillAndRestart(Options{}) }()

			client := NewClient(rc.url)
			client.RetryBase = time.Millisecond
			client.RetryMax = 50 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := client.Run(ctx, testRequest())
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := <-restartErr; err != nil {
				t.Fatalf("round %d restart: %v", round, err)
			}
			sameMeasurement(t, fmt.Sprintf("chaos round %d", round), rep.Result(), want)
		})
	}
}
