package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %g too far from 0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %g too far from 1", variance)
	}
}

func TestNormScaled(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormScaled(3.0)
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq / n)
	if math.Abs(sd-3) > 0.1 {
		t.Fatalf("scaled std %g, want ≈3", sd)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	child := r.Split()
	// The child stream must not simply replay the parent.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream mirrors parent (%d collisions)", same)
	}
}

func TestNormScaledZeroSigmaProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		return r.NormScaled(0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// normSink keeps the benchmarked draws observable to the compiler.
var normSink float64

func BenchmarkRNGNorm(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	for b.Loop() {
		normSink += r.Norm()
	}
}

func TestRNGNormAllocFree(t *testing.T) {
	r := NewRNG(1)
	if allocs := testing.AllocsPerRun(1000, func() { normSink += r.Norm() }); allocs != 0 {
		t.Fatalf("Norm allocates %.0f objects per call, want 0", allocs)
	}
}

// TestNormTails compares the two-sided frequency beyond 3σ and 4σ in
// 10⁶ draws with erfc(k/√2), within five binomial standard errors.
func TestNormTails(t *testing.T) {
	const n = 1_000_000
	r := NewRNG(31)
	var beyond3, beyond4 int
	for i := 0; i < n; i++ {
		v := math.Abs(r.Norm())
		if v > 3 {
			beyond3++
		}
		if v > 4 {
			beyond4++
		}
	}
	for _, c := range []struct {
		k     float64
		count int
	}{{3, beyond3}, {4, beyond4}} {
		p := math.Erfc(c.k / math.Sqrt2)
		want := p * n
		tol := 5 * math.Sqrt(n*p*(1-p))
		if math.Abs(float64(c.count)-want) > tol {
			t.Errorf("%d draws beyond %gσ, want %.0f ± %.0f", c.count, c.k, want, tol)
		}
	}
}

// TestRNGResetDeterminism: after any mix of draws, Reset(seed) replays
// exactly the stream of NewRNG(seed), normals included. The odd number
// of normals before the Reset leaves a polar spare cached, which Reset
// must discard.
func TestRNGResetDeterminism(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1001; i++ {
		r.Norm()
		r.Uint64()
	}
	r.Reset(41)
	fresh := NewRNG(41)
	for i := 0; i < 10000; i++ {
		a, b := r.Norm(), fresh.Norm()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("draw %d after Reset: %g, fresh generator: %g", i, a, b)
		}
	}
}
