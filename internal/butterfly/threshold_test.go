package butterfly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// TestEnumerateThresholdMatchesBruteForce: the pruned enumeration returns
// exactly the backbone butterflies whose existence probability reaches
// the threshold.
func TestEnumerateThresholdMatchesBruteForce(t *testing.T) {
	check := func(seed int64, tRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 6, 6, 0.6)
		threshold := float64(tRaw) / 255
		got, err := EnumerateThreshold(g, threshold)
		if err != nil {
			return false
		}
		want := make(map[Butterfly]float64)
		for _, bw := range AllBackbone(g) {
			pr, _ := bw.B.ExistProb(g)
			if pr >= threshold {
				want[bw.B] = pr
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, wp := range got {
			pr, ok := want[wp.B]
			if !ok || math.Abs(pr-wp.P) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateThresholdSortedAndBounds(t *testing.T) {
	g := figure1(t)
	list, err := EnumerateThreshold(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("threshold 0 returned %d butterflies, want all 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].P > list[i-1].P {
			t.Fatalf("not sorted by probability at %d", i)
		}
	}
	// Figure 1 existence probabilities: max is 0.1344 (the weight-7
	// B(u1,u2|v2,v3)); a threshold above it returns nothing.
	high, err := EnumerateThreshold(g, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(high) != 0 {
		t.Fatalf("threshold 0.2 returned %d butterflies, want 0", len(high))
	}
	if _, err := EnumerateThreshold(g, -0.1); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := EnumerateThreshold(g, 1.5); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
}

// TestThresholdWedgePruneSafe: pruning at the wedge level never loses a
// qualifying butterfly even when one wedge is far weaker than its mate.
func TestThresholdWedgePruneSafe(t *testing.T) {
	// Butterfly with wedge probs 0.9·0.9 = 0.81 and 0.5·0.5 = 0.25;
	// total 0.2025. A threshold of 0.2 must keep it: both wedges clear
	// the per-wedge bound (0.81 ≥ 0.2, 0.25 ≥ 0.2).
	bld := bigraph.NewBuilder(2, 2)
	bld.MustAddEdge(0, 0, 1, 0.9)
	bld.MustAddEdge(1, 0, 1, 0.9) // wedge through v0: 0.81
	bld.MustAddEdge(0, 1, 1, 0.5)
	bld.MustAddEdge(1, 1, 1, 0.5) // wedge through v1: 0.25
	g := bld.Build()
	list, err := EnumerateThreshold(g, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || math.Abs(list[0].P-0.2025) > 1e-12 {
		t.Fatalf("got %v, want the single 0.2025 butterfly", list)
	}
	// At 0.26 the weak wedge itself fails and the butterfly disappears.
	list, err = EnumerateThreshold(g, 0.26)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("threshold 0.26 kept %v", list)
	}
}
