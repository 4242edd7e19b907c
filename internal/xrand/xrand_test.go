package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	a, b := Derive(7, 0), Derive(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams overlap: %d identical outputs", same)
	}
	c, d := Derive(7, 3), Derive(7, 3)
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
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

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestNextMatchesUint64(t *testing.T) {
	a, b := New(17), New(17)
	for i := 0; i < 1000; i++ {
		before := *b
		x, next := b.Next()
		if *b != before {
			t.Fatal("Next changed its receiver")
		}
		*b = next
		if want := a.Uint64(); x != want {
			t.Fatalf("draw %d: Next = %#x, Uint64 = %#x", i, x, want)
		}
	}
}

func TestThresholdMatchesFloat64Compare(t *testing.T) {
	// Float64() < p against x>>11 < Threshold(p) for the 53-bit draws on
	// either side of the threshold, at rates where rounding could part
	// them: the smallest subnormal, neighbours of 2⁻⁵³, ½ and 1, and the
	// cases outside (0, 1).
	ulp := math.Ldexp(1, -53)
	ps := []float64{
		0, math.SmallestNonzeroFloat64, 1e-300, 0.001 / 3,
		ulp, math.Nextafter(ulp, 0), math.Nextafter(ulp, 1), 3 * ulp,
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		1 - ulp, math.Nextafter(1, 0), 1, 1.5, math.Inf(1),
		-0.1, math.Inf(-1), math.NaN(),
	}
	for _, p := range ps {
		th := Threshold(p)
		for _, m := range []uint64{0, 1, th - 1, th, th + 1, 1<<52 + 1, 1<<53 - 1} {
			if m >= 1<<53 {
				continue
			}
			// Float64 returns float64(x>>11) / 2⁵³; m stands for x>>11.
			if got, want := m < th, float64(m)/(1<<53) < p; got != want {
				t.Errorf("p=%v m=%d: threshold %d says %v, Float64 compare %v", p, m, th, got, want)
			}
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for n := 0; n < 50; n++ {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(17)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", s)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 10, 50} {
		r := New(23)
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(29)
	for i := 0; i < 1000; i++ {
		if r.Poisson(100) < 0 {
			t.Fatal("negative Poisson sample")
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(31)
	const p = 0.25
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	if math.Abs(mean-1/p) > 0.15 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, 1/p)
	}
}

func TestGeometricAtLeastOne(t *testing.T) {
	r := New(37)
	for _, p := range []float64{0.01, 0.5, 1, 2} {
		for i := 0; i < 100; i++ {
			if r.Geometric(p) < 1 {
				t.Fatalf("Geometric(%v) < 1", p)
			}
		}
	}
}

func TestKeystreamDeterministic(t *testing.T) {
	a := make([]byte, 257)
	b := make([]byte, 257)
	Keystream(99, a)
	Keystream(99, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("keystream mismatch at %d", i)
		}
	}
}

func TestKeystreamXorInvolution(t *testing.T) {
	f := func(seed uint64, payload []byte) bool {
		orig := append([]byte(nil), payload...)
		ks := make([]byte, len(payload))
		Keystream(seed, ks)
		for i := range payload {
			payload[i] ^= ks[i]
		}
		for i := range payload {
			payload[i] ^= ks[i]
		}
		for i := range payload {
			if payload[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeystreamPrefixConsistency(t *testing.T) {
	long := make([]byte, 64)
	short := make([]byte, 10)
	Keystream(5, long)
	Keystream(5, short)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("keystream not prefix-consistent at %d", i)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(41)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

// TestReseedMatchesNew pins the in-place reseeding methods to their
// allocating counterparts: an RNG reseeded with Reseed/ReseedDerive must
// produce exactly the stream a fresh New/Derive would, regardless of how
// much the instance was consumed beforehand. The clustering fast path
// depends on this to redraw per-round gram sets without allocating.
func TestReseedMatchesNew(t *testing.T) {
	var r RNG
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		// Desync the reusable instance first.
		for i := 0; i < 17; i++ {
			r.Uint64()
		}
		r.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("Reseed(%d) stream diverges at draw %d: %d != %d", seed, i, got, want)
			}
		}
		r.ReseedDerive(seed, 0xbeef)
		derived := Derive(seed, 0xbeef)
		for i := 0; i < 100; i++ {
			if got, want := r.Uint64(), derived.Uint64(); got != want {
				t.Fatalf("ReseedDerive(%d) stream diverges at draw %d: %d != %d", seed, i, got, want)
			}
		}
	}
}
