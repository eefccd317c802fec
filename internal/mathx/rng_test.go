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

// TestNormMoments checks the first four moments of 10⁶ draws against
// the standard normal's (0, 1, 0, 3), each within five standard
// errors.
func TestNormMoments(t *testing.T) {
	const n = 1_000_000
	r := NewRNG(29)
	var s1, s2, s3, s4 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		v2 := v * v
		s1 += v
		s2 += v2
		s3 += v2 * v
		s4 += v2 * v2
	}
	mean, variance, skew, kurt := s1/n, s2/n, s3/n, s4/n
	for _, m := range []struct {
		name      string
		got, want float64
		se        float64
	}{
		{"mean", mean, 0, math.Sqrt(1.0 / n)},
		{"variance", variance, 1, math.Sqrt(2.0 / n)},
		{"skewness", skew, 0, math.Sqrt(15.0 / n)},
		{"kurtosis", kurt, 3, math.Sqrt(96.0 / n)},
	} {
		if math.Abs(m.got-m.want) > 5*m.se {
			t.Errorf("%s %g, want %g ± %g", m.name, m.got, m.want, 5*m.se)
		}
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
// exactly the stream of NewRNG(seed), normals included.
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

// TestZigSplitLayerValueIndependence checks that the layer index and
// the signed uniform come from disjoint bits of one draw: flipping any
// value bit leaves the layer alone and vice versa, and over 10⁶ draws
// neither the value's low bits nor its magnitude octile carry
// information about the layer (χ² within five standard deviations of
// its degrees of freedom).
func TestZigSplitLayerValueIndependence(t *testing.T) {
	probe := uint64(0x0123456789ABCDEF)
	layer, u := zigSplit(probe)
	for b := 0; b < 64; b++ {
		l, v := zigSplit(probe ^ 1<<b)
		if l != layer && v != u {
			t.Fatalf("bit %d feeds both the layer and the value", b)
		}
	}
	const n, bins = 1_000_000, 16
	var lowBits, octile [bins][bins]float64
	r := NewRNG(37)
	for i := 0; i < n; i++ {
		l, v := zigSplit(r.Uint64())
		l %= bins
		lowBits[l][uint64(int64(v*0x1p52))%bins]++
		octile[l][int(math.Abs(v)*bins)%bins]++
	}
	for name, tab := range map[string]*[bins][bins]float64{"value low bits": &lowBits, "value magnitude": &octile} {
		var rows, cols [bins]float64
		for i := range tab {
			for j := range tab[i] {
				rows[i] += tab[i][j]
				cols[j] += tab[i][j]
			}
		}
		chi2 := 0.0
		for i := range tab {
			for j := range tab[i] {
				e := rows[i] * cols[j] / n
				chi2 += (tab[i][j] - e) * (tab[i][j] - e) / e
			}
		}
		df := float64((bins - 1) * (bins - 1))
		if chi2 > df+5*math.Sqrt(2*df) {
			t.Errorf("layer vs %s: χ² = %.0f on %.0f degrees of freedom", name, chi2, df)
		}
	}
}
