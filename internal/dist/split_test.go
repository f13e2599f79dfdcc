package dist

import "testing"

// TestSplitRange: shard ranges tile [0, n) contiguously, are near-even,
// and never exceed the unit count.
func TestSplitRange(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for parts := -1; parts <= n+3; parts++ {
			shards := splitRange(n, parts)
			if n <= 0 {
				if shards != nil {
					t.Fatalf("splitRange(%d,%d) = %v, want nil", n, parts, shards)
				}
				continue
			}
			lo := 0
			for _, sr := range shards {
				if sr.lo != lo || sr.hi <= sr.lo {
					t.Fatalf("splitRange(%d,%d): bad range %+v at lo=%d", n, parts, sr, lo)
				}
				lo = sr.hi
			}
			if lo != n {
				t.Fatalf("splitRange(%d,%d) covers [0,%d), want [0,%d)", n, parts, lo, n)
			}
			want := parts
			if want < 1 {
				want = 1
			}
			if want > n {
				want = n
			}
			if len(shards) != want {
				t.Fatalf("splitRange(%d,%d) produced %d shards, want %d", n, parts, len(shards), want)
			}
		}
	}
}
