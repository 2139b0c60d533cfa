package core

import (
	"context"
	"errors"
	"testing"
)

func TestDiscoverParallelInvariants(t *testing.T) {
	rel := piecewiseRelation(800, 0.2, 1)
	cfg := discoverCfg(rel, 0.5)
	par := cfg
	par.Workers = 4
	res, err := Discover(context.Background(), rel, WithConfig(par))
	if err != nil {
		t.Fatalf("parallel Discover: %v", err)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v, want 1", cov)
	}
	if !res.Rules.Holds(rel) {
		t.Error("parallel rules violated on training data")
	}
	// Quality matches the sequential result within a generous band.
	seq, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Rules.RMSE(rel)
	sr := seq.Rules.RMSE(rel)
	if pr > 2*sr+0.2 {
		t.Errorf("parallel RMSE %v far above sequential %v", pr, sr)
	}
}

func TestDiscoverParallelOneWorkerIsSequential(t *testing.T) {
	rel := piecewiseRelation(300, 0.2, 2)
	cfg := discoverCfg(rel, 0.5)
	one := cfg
	one.Workers = 1
	par, err := Discover(context.Background(), rel, WithConfig(one))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if par.Rules.NumRules() != seq.Rules.NumRules() || par.Stats != seq.Stats {
		t.Errorf("workers=1 diverged from sequential: %+v vs %+v", par.Stats, seq.Stats)
	}
}

func TestDiscoverParallelFuseShared(t *testing.T) {
	rel := piecewiseRelation(800, 0.2, 3)
	cfg := discoverCfg(rel, 0.5)
	cfg.FuseShared = true
	cfg.Workers = 4
	res, err := Discover(context.Background(), rel, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.NumRules() >= res.Stats.NodesExpanded {
		t.Errorf("FuseShared had no effect: %d rules over %d nodes",
			res.Rules.NumRules(), res.Stats.NodesExpanded)
	}
	if cov := res.Rules.Coverage(rel); cov != 1 {
		t.Errorf("coverage = %v", cov)
	}
	if !res.Rules.Holds(rel) {
		t.Error("fused parallel rules violated")
	}
}

func TestDiscoverParallelValidation(t *testing.T) {
	rel := piecewiseRelation(100, 0.2, 4)
	cfg := discoverCfg(rel, 0.5)
	cfg.XAttrs = []int{1}
	cfg.Workers = 4
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); err == nil {
		t.Error("Y ∈ X accepted")
	}
}

func TestDiscoverParallelEmpty(t *testing.T) {
	rel := piecewiseRelation(0, 0.2, 5)
	cfg := DiscoverConfig{XAttrs: []int{0}, YAttr: 1, RhoM: 1, Workers: 4,
		Trainer: discoverCfg(piecewiseRelation(10, 0.1, 5), 0.5).Trainer}
	if _, err := Discover(context.Background(), rel, WithConfig(cfg)); !errors.Is(err, ErrEmptyRelation) {
		t.Errorf("empty parallel err = %v, want ErrEmptyRelation", err)
	}
}

func TestDiscoverParallelManyWorkersRace(t *testing.T) {
	// Stress the pool with more workers than work; run with -race in CI.
	rel := piecewiseRelation(600, 0.2, 6)
	cfg := discoverCfg(rel, 0.5)
	cfg.Workers = 16
	for trial := 0; trial < 3; trial++ {
		res, err := Discover(context.Background(), rel, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if cov := res.Rules.Coverage(rel); cov != 1 {
			t.Fatalf("trial %d coverage = %v", trial, cov)
		}
	}
}
