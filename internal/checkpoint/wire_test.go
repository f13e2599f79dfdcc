package checkpoint_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// TestWireRoundTrip: EncodeSet's byte stream decodes to an
// indistinguishable Set, and re-encoding the decoded set reproduces the
// bytes exactly — the distributed service ships sweeps with this codec,
// so the transfer must be lossless and deterministic.
func TestWireRoundTrip(t *testing.T) {
	p := genProg(t, "gccx", 300_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 2000, K: 40, J: 0, FunctionalWarm: true}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)

	var buf bytes.Buffer
	if err := checkpoint.EncodeSet(&buf, key, set); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	got, err := checkpoint.DecodeSet(bytes.NewReader(wire), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Units) != len(set.Units) {
		t.Fatalf("decoded %d units, encoded %d", len(got.Units), len(set.Units))
	}
	if got.PopulationUnits != set.PopulationUnits || got.SweepInsts != set.SweepInsts || got.K != set.K {
		t.Fatalf("sweep accounting lost: got %+v, want %+v",
			[]any{got.PopulationUnits, got.SweepInsts, got.K},
			[]any{set.PopulationUnits, set.SweepInsts, set.K})
	}
	for i := range set.Units {
		unitsEqual(t, fmt.Sprintf("wire unit %d", i), got.Units[i], set.Units[i])
	}

	var again bytes.Buffer
	if err := checkpoint.EncodeSet(&again, key, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), wire) {
		t.Fatalf("re-encoding the decoded set changed the bytes (%d vs %d)",
			again.Len(), len(wire))
	}
}

// TestWireKeyValidation: a stream decoded against the wrong key fails
// loudly instead of materializing foreign launch states, and a
// truncated transfer errors rather than yielding a partial set.
func TestWireKeyValidation(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 20, J: 0, FunctionalWarm: true}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)

	var buf bytes.Buffer
	if err := checkpoint.EncodeSet(&buf, key, set); err != nil {
		t.Fatal(err)
	}

	other := params
	other.K = 10
	wrong := checkpoint.KeyFor(p, cfg, other)
	if _, err := checkpoint.DecodeSet(bytes.NewReader(buf.Bytes()), wrong); err == nil {
		t.Fatal("decode with mismatched key succeeded")
	}

	for _, cut := range []int{1, buf.Len() / 2, buf.Len() - 1} {
		if _, err := checkpoint.DecodeSet(bytes.NewReader(buf.Bytes()[:cut]), key); err == nil {
			t.Fatalf("decode of %d/%d-byte truncated stream succeeded", cut, buf.Len())
		}
	}
}

// TestExpectedUnits: the up-front unit count matches the boundary
// generator's actual captures across offsets and caps — the distributed
// coordinator sizes shard ranges from it before any worker runs.
func TestExpectedUnits(t *testing.T) {
	p := genProg(t, "gzipx", 150_000)
	cfg := uarch.Config8Way()
	cases := []checkpoint.Params{
		{U: 1000, K: 10, J: 0},
		{U: 1000, W: 1000, K: 7, J: 3, FunctionalWarm: true},
		{U: 500, K: 20, J: 19},
		{U: 1000, K: 10, J: 0, MaxUnits: 4},
		{U: 1000, K: 10, Offsets: []uint64{0, 2, 5}},
	}
	for _, params := range cases {
		set := capture(t, p, cfg, params)
		pop := set.PopulationUnits
		if want := params.ExpectedUnits(pop); len(set.Units) != want {
			t.Errorf("params %+v: captured %d units, ExpectedUnits(%d) = %d",
				params, len(set.Units), pop, want)
		}
	}
	// Offsets at or beyond the population contribute nothing.
	if got := (checkpoint.Params{U: 1000, K: 5, J: 0}).ExpectedUnits(0); got != 0 {
		t.Errorf("ExpectedUnits over empty population = %d, want 0", got)
	}
	if got := (checkpoint.Params{U: 1000, K: 5, J: 40}).ExpectedUnits(30); got != 0 {
		t.Errorf("ExpectedUnits with offset past population = %d, want 0", got)
	}
}

// TestMemCacheLRU: the byte cap evicts least-recently-used entries on
// insert, a Get refreshes recency, the just-inserted entry is never
// evicted, and the stats counters track it all.
func TestMemCacheLRU(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := func(j uint64) checkpoint.Params {
		return checkpoint.Params{U: 1000, K: 20, J: j}
	}
	sets := make([]*checkpoint.Set, 4)
	keys := make([]checkpoint.Key, 4)
	size := make([]int64, 4)
	for j := range sets {
		sets[j] = capture(t, p, cfg, params(uint64(j)))
		keys[j] = checkpoint.KeyFor(p, cfg, params(uint64(j)))
		size[j] = int64(sets[j].WarmBytes()) + int64(sets[j].MemBytes())
		if size[j] == 0 {
			t.Fatal("captured set accounts zero payload bytes")
		}
	}

	c := checkpoint.NewMemCache()
	// Room for entries 0 and 1, or 0 and 2 — but not all three, so the
	// third insert evicts exactly one entry.
	c.MaxBytes = size[0] + size[1] + size[2] - 1

	c.Put(keys[0], sets[0])
	c.Put(keys[1], sets[1])
	if c.Bytes() > c.MaxBytes {
		t.Fatalf("cache holds %d bytes over the %d cap", c.Bytes(), c.MaxBytes)
	}
	// Touch 0 so 1 is the LRU entry, then insert 2: 1 must go.
	if c.Get(keys[0]) == nil {
		t.Fatal("entry 0 missing before eviction pressure")
	}
	c.Put(keys[2], sets[2])
	if c.Get(keys[1]) != nil {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if c.Get(keys[0]) == nil || c.Get(keys[2]) == nil {
		t.Fatal("recently-used entries were evicted")
	}

	// An entry bigger than the whole cap still serves its own run: the
	// just-inserted entry is exempt from eviction.
	tiny := checkpoint.NewMemCache()
	tiny.MaxBytes = 1
	tiny.Put(keys[3], sets[3])
	if tiny.Get(keys[3]) == nil {
		t.Fatal("oversized just-inserted entry was evicted")
	}

	hits, misses, evictions := c.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}

	// Unbounded cache never evicts.
	free := checkpoint.NewMemCache()
	for j := range sets {
		free.Put(keys[j], sets[j])
	}
	if _, _, ev := free.Stats(); ev != 0 {
		t.Fatalf("unbounded cache evicted %d entries", ev)
	}
	if want := size[0] + size[1] + size[2] + size[3]; free.Bytes() != want {
		t.Fatalf("unbounded cache accounts %d bytes, want %d", free.Bytes(), want)
	}
}
