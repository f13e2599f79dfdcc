package checkpoint

import (
	"bytes"
	"io"
	"testing"
)

// TestRecordSealAlloc pins the record framing to zero allocations: a
// writer beginning, filling and sealing a record, and a reader beginning,
// reading and checking one, fold the record's ordinal and words into its
// CRC through buffers they own. Every record a sweep writes and a store
// hit reads goes through here.
func TestRecordSealAlloc(t *testing.T) {
	const records = 300
	var stream bytes.Buffer
	w := newCodecWriter(&stream)
	w.seed = 0x5eed
	for i := range records {
		w.begin()
		if err := w.u64(uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := newCodecReader(bytes.NewReader(stream.Bytes()))
	r.seed = w.seed
	next := uint64(0)
	if allocs := testing.AllocsPerRun(records-1, func() {
		r.begin()
		v, err := r.u64()
		if err != nil || v != next {
			t.Fatalf("record %d read %d, %v", next, v, err)
		}
		if err := r.check(); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Fatalf("reading a record allocates %.1f objects", allocs)
	}

	d := newCodecWriter(io.Discard)
	if allocs := testing.AllocsPerRun(100, func() {
		d.begin()
		if err := d.u64(7); err != nil {
			t.Fatal(err)
		}
		if err := d.seal(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("writing a record allocates %.1f objects", allocs)
	}
}
