package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	d1 := root.Derive(1)
	d2 := root.Derive(2)
	d1again := root.Derive(1)
	for i := 0; i < 100; i++ {
		v1, v2, v1a := d1.Uint64(), d2.Uint64(), d1again.Uint64()
		if v1 != v1a {
			t.Fatalf("Derive(1) not reproducible at step %d", i)
		}
		if v1 == v2 {
			t.Fatalf("Derive(1) and Derive(2) collided at step %d", i)
		}
	}
	// Derive must not disturb the parent stream.
	a, b := New(9), New(9)
	_ = a.Derive(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Derive disturbed parent stream at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(2)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ≈ 0.5", mean)
	}
}

func TestBernoulliEndpointsAndRate(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.005 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(4)
	const n, k = 120000, 6
	var buckets [k]int
	for i := 0; i < n; i++ {
		v := r.Intn(k)
		if v < 0 || v >= k {
			t.Fatalf("Intn out of range: %d", v)
		}
		buckets[v]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-1.0/k) > 0.01 {
			t.Fatalf("bucket %d frequency %v, want ≈ %v", i, frac, 1.0/k)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈ 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("normal variance = %v, want ≈ 9", variance)
	}
}

func TestNormalClamped(t *testing.T) {
	r := New(6)
	for i := 0; i < 50000; i++ {
		x := r.NormalClamped(0.5, 0.2, 0.01, 0.99)
		if x < 0.01 || x > 0.99 {
			t.Fatalf("clamped normal out of range: %v", x)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
