package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// randomPiecewise builds a random piecewise-linear dataset with 1–4 regimes
// and bounded noise — a valid input for discovery with any ρ_M above the
// noise amplitude.
func randomPiecewise(rng *rand.Rand) (*dataset.Relation, float64) {
	nRegimes := 1 + rng.Intn(4)
	type regime struct{ slope, intercept float64 }
	regimes := make([]regime, nRegimes)
	for i := range regimes {
		regimes[i] = regime{rng.NormFloat64() * 3, rng.NormFloat64() * 20}
	}
	noise := 0.05 + rng.Float64()*0.2
	n := 100 + rng.Intn(300)
	rel := dataset.NewRelation(lineSchema())
	span := 10 + rng.Float64()*90
	for i := 0; i < n; i++ {
		x := span * float64(i) / float64(n)
		reg := regimes[int(float64(nRegimes)*x/span)%nRegimes]
		y := reg.slope*x + reg.intercept + noise*(2*rng.Float64()-1)
		rel.MustAppend(lineTuple(x, y, "t"))
	}
	return rel, noise
}

// Property (Problem 1): for random piecewise data and ρ_M above the noise,
// discovery covers every tuple and every rule holds, under all option
// combinations.
func TestDiscoverInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel, noise := randomPiecewise(rng)
		rhoM := 2*noise + rng.Float64()
		preds := predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{
			Kind: predicate.Binary, Size: 16 + rng.Intn(48),
		})
		cfg := DiscoverConfig{
			XAttrs:         []int{0},
			YAttr:          1,
			RhoM:           rhoM,
			Preds:          preds,
			Trainer:        regress.LinearTrainer{},
			Order:          QueueOrder(rng.Intn(3)),
			Seed:           seed,
			DisableSharing: rng.Intn(4) == 0,
			FuseShared:     rng.Intn(2) == 0,
		}
		res, err := Discover(context.Background(), rel, WithConfig(cfg))
		if err != nil {
			return false
		}
		return res.Rules.Coverage(rel) == 1 && res.Rules.Holds(rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: compaction is idempotent in size and semantics — compacting a
// compacted set changes nothing observable.
func TestCompactIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel, noise := randomPiecewise(rng)
		preds := predicate.Generate(rel, []int{0}, predicate.GeneratorConfig{
			Kind: predicate.Binary, Size: 32,
		})
		res, err := Discover(context.Background(), rel, WithConfig(DiscoverConfig{
			XAttrs: []int{0}, YAttr: 1, RhoM: 2*noise + 0.2,
			Preds: preds, Trainer: regress.LinearTrainer{},
		}))
		if err != nil {
			return false
		}
		once, _ := compactExact(t, res.Rules)
		twice, _ := compactExact(t, once)
		if twice.NumRules() != once.NumRules() {
			return false
		}
		for _, tp := range rel.Tuples {
			p1, ok1 := once.Predict(tp)
			p2, ok2 := twice.Predict(tp)
			if ok1 != ok2 || absDiff(p1, p2) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
