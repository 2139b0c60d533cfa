package regress

import (
	"math"
	"math/rand"
	"testing"
)

// referenceScan is the pre-optimization two-pass semantics over row-major
// rows: newest-first ShareTest until the first OK, then (independently) the
// full max fit fraction. The single-pass scanner over the column-major part
// must reproduce both bitwise.
func referenceScan(models []Model, x [][]float64, y []float64, rhoM float64) (idx int, res ShareResult) {
	for i := len(models) - 1; i >= 0; i-- {
		if r := ShareTest(models[i], x, y, rhoM); r.OK {
			return i, r
		}
	}
	return -1, ShareResult{}
}

func referenceIndex(models []Model, x [][]float64, y []float64, rhoM float64) float64 {
	var best float64
	for _, f := range models {
		if fr := ShareTest(f, x, y, rhoM).FitFraction; fr > best {
			best = fr
		}
	}
	return best
}

// columnMajor lays row-major rows of width d out as a column-major part.
func columnMajor(x [][]float64, y []float64, d int) Part {
	lanes := make([][]float64, d)
	for j := range lanes {
		lanes[j] = make([]float64, len(x))
		for i, row := range x {
			lanes[j][i] = row[j]
		}
	}
	return Part{X: lanes, Y: y}
}

func randomPool(rng *rand.Rand, k, d int) []Model {
	pool := make([]Model, k)
	for i := range pool {
		w := make([]float64, d+1)
		for j := range w {
			w[j] = 4 * (rng.Float64() - 0.5)
		}
		pool[i] = &Linear{W: w, family: "linear"}
	}
	return pool
}

// mlpPool trains k small perceptrons of width d, which the residual kernel
// evaluates through Predict on its reused row.
func mlpPool(rng *rand.Rand, k, d int) []Model {
	pool := make([]Model, k)
	for i := range pool {
		x, y := randomSample(rng, 12, d)
		m, err := MLPTrainer{Hidden: 3, Epochs: 4, LR: 0.05, Seed: rng.Int63()}.Train(x, y)
		if err != nil {
			panic(err)
		}
		pool[i] = m
	}
	return pool
}

// sameShare compares two share results bitwise.
func sameShare(a, b ShareResult) bool {
	bits := math.Float64bits
	return a.OK == b.OK && bits(a.Delta0) == bits(b.Delta0) && bits(a.MaxErr) == bits(b.MaxErr) &&
		bits(a.FitFraction) == bits(b.FitFraction)
}

// TestShareScannerMatchesReference: over linear, perceptron and mixed pools
// of every width from 0 to 3, Scan and Index over the column-major part
// must equal ShareTest over the same rows row-major, bitwise, and the
// kernel's residuals and MaxAbs must equal Predict's and MaxAbsError's.
func TestShareScannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc ShareScanner
	mixedPool := func(rng *rand.Rand, k, d int) []Model {
		pool := randomPool(rng, k, d)
		for i := range pool {
			if rng.Intn(2) == 0 {
				pool[i] = mlpPool(rng, 1, d)[0]
			}
		}
		return pool
	}
	for _, pools := range []struct {
		name    string
		newPool func(rng *rand.Rand, k, d int) []Model
	}{{"linear", randomPool}, {"mlp", mlpPool}, {"mixed", mixedPool}} {
		name, newPool := pools.name, pools.newPool
		for trial := 0; trial < 200; trial++ {
			d := rng.Intn(4)
			x, y := randomSample(rng, 3+rng.Intn(30), d)
			p := columnMajor(x, y, d)
			pool := newPool(rng, rng.Intn(6), d)
			rhoM := 0.5 + 4*rng.Float64()

			wantIdx, wantRes := referenceScan(pool, x, y, rhoM)
			idx, res, ind, tried := sc.Scan(pool, p, rhoM)
			if idx != wantIdx {
				t.Fatalf("%s trial %d (d=%d): hit index %d, want %d", name, trial, d, idx, wantIdx)
			}
			if idx >= 0 {
				if !sameShare(res, wantRes) {
					t.Fatalf("%s trial %d (d=%d): result %+v, want %+v", name, trial, d, res, wantRes)
				}
				if tried != len(pool)-idx {
					t.Fatalf("%s trial %d: tried %d, want %d (early exit)", name, trial, tried, len(pool)-idx)
				}
			} else {
				// On a miss the scan covered all of F, so ind is exactly Line
				// 12's sharing index.
				if want := referenceIndex(pool, x, y, rhoM); math.Float64bits(ind) != math.Float64bits(want) {
					t.Fatalf("%s trial %d: ind %v, want %v", name, trial, ind, want)
				}
				if tried != len(pool) {
					t.Fatalf("%s trial %d: tried %d, want %d", name, trial, tried, len(pool))
				}
			}
			if got, want := sc.Index(pool, p, rhoM), referenceIndex(pool, x, y, rhoM); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: Index %v, want %v", name, trial, got, want)
			}
			for _, f := range pool {
				for i, r := range sc.Residuals(f, p) {
					if want := y[i] - f.Predict(x[i]); math.Float64bits(r) != math.Float64bits(want) {
						t.Fatalf("%s trial %d: residual %d is %v, Predict gives %v", name, trial, i, r, want)
					}
				}
				if got, want := sc.MaxAbs(f, p), MaxAbsError(f, x, y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s trial %d: MaxAbs %v, MaxAbsError %v", name, trial, got, want)
				}
			}
		}
	}
}

func TestShareScannerEmpty(t *testing.T) {
	var sc ShareScanner
	idx, _, ind, tried := sc.Scan(nil, Part{X: [][]float64{{1}}, Y: []float64{1}}, 1)
	if idx != -1 || ind != 0 || tried != 0 {
		t.Errorf("empty pool scan = %d, %v, %d", idx, ind, tried)
	}
	// An empty part shares with any model (vacuous Proposition 6).
	idx, res, _, _ := sc.Scan(randomPool(rand.New(rand.NewSource(1)), 2, 1), Part{X: [][]float64{nil}}, 1)
	if idx != 1 || !res.OK || res.FitFraction != 1 {
		t.Errorf("empty part scan = %d, %+v", idx, res)
	}
}

// TestShareScannerReusesBuffer pins the zero-allocation property the hot
// path relies on: repeated scans and ρ checks over same-size parts must not
// allocate, for linear models and for the Predict fallback alike.
func TestShareScannerReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y := randomSample(rng, 64, 2)
	p := columnMajor(x, y, 2)
	for _, pools := range []struct {
		name string
		pool []Model
	}{{"linear", randomPool(rng, 4, 2)}, {"mlp", mlpPool(rng, 4, 2)}} {
		name, pool := pools.name, pools.pool
		var sc ShareScanner
		sc.Scan(pool, p, 0.1) // warm the buffers
		allocs := testing.AllocsPerRun(20, func() {
			sc.Scan(pool, p, 0.1)
			sc.Index(pool, p, 0.1)
			sc.MaxAbs(pool[0], p)
		})
		if allocs > 0 {
			t.Errorf("%s: Scan, Index and MaxAbs allocate %v per run after warm-up", name, allocs)
		}
	}
}

func TestShareTestIntoMatchesShareTest(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	buf := make([]float64, 128)
	for trial := 0; trial < 50; trial++ {
		x, y := randomSample(rng, 1+rng.Intn(100), 2)
		f := randomPool(rng, 1, 2)[0]
		rhoM := 3 * rng.Float64()
		a := ShareTest(f, x, y, rhoM)
		b := shareTestInto(f, x, y, rhoM, buf)
		if a != b {
			t.Fatalf("trial %d: %+v vs %+v", trial, a, b)
		}
		if math.IsNaN(a.Delta0) {
			t.Fatalf("trial %d: NaN delta", trial)
		}
	}
}
