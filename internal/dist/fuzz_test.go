package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/uarch"
	"repro/sim"
)

// journalCorpus renders a small valid run journal — header, shard
// split, one unit line, one done line — through the real encoder.
func journalCorpus(f *testing.F) []byte {
	f.Helper()
	lines := []journalLine{
		{Run: &journalRun{
			ID:    "fuzz-run",
			Req:   wireRequest{Workload: "gccx", Length: 120_000},
			Spec:  runSpec{},
			Total: 4,
			Pop:   120,
		}},
		{Shards: []journalShard{{Lo: 0, Hi: 2, Idx: 0}, {Lo: 2, Hi: 4, Idx: 1}}},
		{Unit: func() *wireUnit {
			u := &wireUnit{Seq: 0, CPI: 1.25, EPI: 9.5}
			u.Digest = u.digest()
			return u
		}()},
		{Done: &journalDone{Idx: 0}},
	}
	var buf bytes.Buffer
	for _, ln := range lines {
		b, err := encodeJournalLine(ln)
		if err != nil {
			f.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// FuzzParseRunJournal feeds mutated run-journal bytes to the recovery
// loader: it must never panic, and any corruption must degrade to the
// longest valid prefix — ok only when a valid header line exists, and
// every recovered unit line carrying a verified digest.
func FuzzParseRunJournal(f *testing.F) {
	valid := journalCorpus(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte("deadbeef {\"run\":null}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ok := parseRunJournal(data)
		if !ok {
			return
		}
		if rec.hdr.ID == "" && len(data) > 0 && rec.hdr.Total == 0 && rec.hdr.Pop == 0 {
			// A header line decoded to the zero value is possible only if
			// the input actually encoded one; nothing further to check.
			_ = rec
		}
		for i := range rec.units {
			if rec.units[i].digest() != rec.units[i].Digest {
				t.Fatalf("recovered unit %d with unverified digest", i)
			}
		}
	})
}

// FuzzWireRequest sends arbitrary bytes through the coordinator's
// run-create decoding: JSON into a wireRequest, the sim.Request it
// describes, distributable, then resolve against the generated
// workload. Nothing may panic, and a request the coordinator accepts
// must come back unchanged from the client's encoding (wireFromRequest).
func FuzzWireRequest(f *testing.F) {
	cfg := uarch.Config16Way()
	for _, wr := range []wireRequest{
		{Workload: "gzipx", Length: 200_000, N: 20},
		{Workload: "gccx", Length: 120_000, U: 1000, K: 10, J: 3, Warming: int(sim.NoWarming)},
		{Workload: "mcfx", Length: 100_000, Config: &cfg, W: 500, MaxUnits: 5, NoStore: true, Alpha: 0.05},
	} {
		b, err := json.Marshal(wr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"Workload":"nosuch","K":4,"J":9}`))
	f.Add([]byte(`{"Workload":"gzipx","Length":1,"U":7,"Alpha":1.5}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wr wireRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wr); err != nil {
			return
		}
		req := wr.request()
		if distributable(req) != nil {
			return
		}
		// A coordinator of its own per input, so the fuzzer's workloads do
		// not pile up in one program cache.
		if _, err := new(Coordinator).resolve(&wr); err != nil {
			return
		}
		back, err := wireFromRequest(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		if got := back.request(); !reflect.DeepEqual(got, req) {
			t.Fatalf("accepted request %+v comes back as %+v", req, got)
		}
	})
}
