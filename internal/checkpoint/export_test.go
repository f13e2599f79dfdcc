package checkpoint

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// Record is one record of a store stream, as Records walks it.
type Record struct {
	Tag        uint64 // recPage, recUnit or recEnd; 0 for the manifest
	Start, End int    // byte offsets in the stream
	Units      int    // unit records ending at or before End
}

// Record tags, for tests that tamper with streams record by record.
const (
	TagPage = recPage
	TagUnit = recUnit
	TagEnd  = recEnd
)

// Records walks an intact entry or journal keyed by k record by record
// — the manifest, then each page, unit and End record — and returns
// where each one lies. A journal simply ends after its last whole
// record.
func Records(data []byte, k Key) ([]Record, error) {
	r := bytes.NewReader(data)
	br := bufio.NewReaderSize(r, codecBufSize)
	pos := func() int { return len(data) - r.Len() - br.Buffered() }
	cr, _, err := readKeyed(br, k)
	if err != nil {
		return nil, err
	}
	recs := []Record{{Start: 12, End: pos()}}
	dec := unitDecoder{}
	units := 0
	for {
		start := pos()
		cr.begin()
		tag, err := cr.u64()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case recPage:
			err = dec.page(cr)
		case recUnit:
			var u *Unit
			if u, err = dec.unit(cr); err == nil {
				dec.prev = u
				units++
			}
		case recEnd:
			for range 3 {
				if _, err = cr.u64(); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = cr.check()
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, Record{Tag: tag, Start: start, End: pos(), Units: units})
		if tag == recEnd {
			return recs, nil
		}
	}
}

// ArenaPages is the most page arrays a pooled stream reader keeps.
const ArenaPages = arenaPages

// PoisonReleasedArenas makes the last release of every recycled warm
// arena overwrite its slabs with a poison pattern before the arena is
// listed for reuse, until t ends: a consumer that still reads a released
// unit's warm state then computes from garbage, and a digest flips.
func PoisonReleasedArenas(t testing.TB) {
	poisonReleased.Store(true)
	t.Cleanup(func() { poisonReleased.Store(false) })
}

// FreeArenas returns how many released warm arenas the free list holds.
func FreeArenas() int { return arenas.Len() }

// ArenaBudget is the most bytes of warm arenas the free list keeps.
const ArenaBudget = arenaBudget
