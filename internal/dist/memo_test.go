package dist

import (
	"math"
	"sync"
	"testing"
)

// ownDist is a Dist outside the Table II types: SumSquaredLineMass must
// compute it on every call rather than memoize it.
type ownDist struct{ Uniform }

// TestSumSquaredLineMassMatchesLineMasses pins the allocation-free walk and
// the memo to the reference: Σ F(j)² summed over LineMasses, bit for bit,
// for whole, ragged and sub-line buffers.
func TestSumSquaredLineMassMatchesLineMasses(t *testing.T) {
	const epl = 16
	for _, n := range []int64{1 << 14, 10007, epl - 7} {
		for _, d := range Table2(n) {
			ref := sumSquaredRef(d, epl)
			for call := 0; call < 2; call++ { // the first call may walk; the second is served
				if got := SumSquaredLineMass(d, epl); math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("%s, N=%d, call %d: Σf² = %v (%#x), reference %v (%#x)",
						d.Name(), n, call, got, math.Float64bits(got), ref, math.Float64bits(ref))
				}
			}
		}
	}

	d := ownDist{NewUniform(1000)}
	before := walks.Load()
	first, second := SumSquaredLineMass(d, epl), SumSquaredLineMass(d, epl)
	if got := walks.Load() - before; got != 2 {
		t.Fatalf("a custom Dist walked %d times in 2 calls, want 2 (no memo)", got)
	}
	if first != second || first != SumSquaredLineMass(d.Uniform, epl) {
		t.Fatalf("custom Dist Σf² %v/%v differs from its Uniform's", first, second)
	}
}

// TestSumSquaredLineMassOncePerKey races first callers on an emptied memo:
// each distinct (distribution, geometry) is walked exactly once.
func TestSumSquaredLineMassOncePerKey(t *testing.T) {
	sumSqMemo.Clear()
	ds := append(Table2(77777), Table2(77778)...)
	geoms := []int64{8, 16}
	var want [][]float64
	for _, d := range ds {
		var row []float64
		for _, epl := range geoms {
			row = append(row, sumSquaredRef(d, epl))
		}
		want = append(want, row)
	}

	before := walks.Load()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(ds)*len(geoms))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, d := range ds {
				for j, epl := range geoms {
					if got := SumSquaredLineMass(d, epl); got != want[i][j] {
						errs <- d.Name()
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: concurrent caller got a wrong Σf²", name)
	}
	if got, keys := walks.Load()-before, uint64(len(ds)*len(geoms)); got != keys {
		t.Fatalf("%d walks for %d distinct keys under 8 concurrent callers", got, keys)
	}
}

// sumSquaredRef is the reference Σf² over LineMasses.
func sumSquaredRef(d Dist, epl int64) float64 {
	sum := 0.0
	for _, f := range LineMasses(d, epl) {
		sum += f * f
	}
	return sum
}

// BenchmarkSumSquaredLineMass times one uncached walk over a buffer of 2Mi
// elements (128Ki lines of 16).
func BenchmarkSumSquaredLineMass(b *testing.B) {
	var d Dist = NewNormal(1<<21, 4)
	b.ReportAllocs()
	for b.Loop() {
		sumSquared(d, 16)
	}
}
