package stats

import (
	"math"
	"testing"
)

func obsSeq(n int) []Obs {
	out := make([]Obs, n)
	x := uint64(12345)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407 // LCG; deterministic
		out[i] = Obs{
			CPI: 1 + float64(x>>40)/float64(1<<24),
			EPI: 5 + float64(x&0xffffff)/float64(1<<24),
		}
	}
	return out
}

func TestAggregatorOrderIndependence(t *testing.T) {
	obs := obsSeq(200)

	inOrder := NewStreamAggregator(Alpha997, 0, 0)
	for i, o := range obs {
		inOrder.Offer(uint64(i), o)
	}

	// A scrambled but complete delivery order (stride permutation).
	scrambled := NewStreamAggregator(Alpha997, 0, 0)
	for s := 0; s < 7; s++ {
		for i := s; i < len(obs); i += 7 {
			scrambled.Offer(uint64(i), obs[i])
		}
	}

	a, b := inOrder.CPIEstimate(), scrambled.CPIEstimate()
	if a.N != b.N || a.N != 200 {
		t.Fatalf("n mismatch: %d vs %d", a.N, b.N)
	}
	if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) {
		t.Fatalf("mean not bit-identical: %v vs %v", a.Mean, b.Mean)
	}
	if math.Float64bits(a.RelCI) != math.Float64bits(b.RelCI) {
		t.Fatalf("CI not bit-identical: %v vs %v", a.RelCI, b.RelCI)
	}
	if math.Float64bits(inOrder.EPISample().Mean()) != math.Float64bits(scrambled.EPISample().Mean()) {
		t.Fatalf("EPI mean not bit-identical")
	}
}
