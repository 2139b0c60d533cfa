package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crrlab/crr/internal/core"
)

// TestInstallGenerationSemantics: installs bump the generation monotonically,
// and InstallIfGeneration only swaps when the caller's token is current.
func TestInstallGenerationSemantics(t *testing.T) {
	_, rules := taxRules(t, 400)
	srv, err := NewFromRuleSet(Config{}, rules, "seed")
	if err != nil {
		t.Fatal(err)
	}
	g0 := srv.Generation()
	if g0 == 0 {
		t.Fatal("construction install left generation 0")
	}
	g1, err := srv.InstallTenant(DefaultTenant, rules, "push-1")
	if err != nil || g1 != g0+1 {
		t.Fatalf("InstallTenant: gen %d err %v, want %d", g1, err, g0+1)
	}
	if got := srv.Generation(); got != g1 {
		t.Fatalf("Generation() = %d after install to %d", got, g1)
	}
	// Stale token: no swap, current generation reported back.
	cur, ok, err := srv.InstallIfGeneration(rules, "stale", g0)
	if err != nil || ok || cur != g1 {
		t.Fatalf("stale CAS: (%d,%v,%v), want (%d,false,nil)", cur, ok, err, g1)
	}
	// Fresh token: swap.
	g2, ok, err := srv.InstallIfGeneration(rules, "cas", g1)
	if err != nil || !ok || g2 != g1+1 {
		t.Fatalf("fresh CAS: (%d,%v,%v), want (%d,true,nil)", g2, ok, err, g1+1)
	}
	if _, err := srv.InstallTenant(DefaultTenant, nil, "nil"); err == nil {
		t.Fatal("nil rule set accepted")
	}
	if _, _, err := srv.InstallIfGeneration(&core.RuleSet{}, "bare", g2); err == nil {
		t.Fatal("schema-less rule set accepted")
	}
}

// TestInstallReloadPredictRace is the hot-reload race hammer of the bugfix
// sweep: operator reloads (ReloadTenantFrom), maintainer pushes
// (InstallTenant), CAS retry loops (InstallIfGeneration) and predict traffic
// all run concurrently under -race. Beyond being race-clean, every successful
// swap must account for exactly one generation tick — the lost-update symptom
// this API fixes is two writers both believing their artifact won.
func TestInstallReloadPredictRace(t *testing.T) {
	rel, rules := taxRules(t, 400)
	var blob bytes.Buffer
	if err := core.WriteRuleSet(&blob, rules); err != nil {
		t.Fatal(err)
	}
	// Each writer re-parses its own RuleSet instances: install mutates the
	// rule set (telemetry wiring), so sharing one instance across writers
	// would itself be a race.
	parse := func() *core.RuleSet {
		rs, err := core.ReadRuleSet(bytes.NewReader(blob.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	srv, ts := newTestServer(t, Config{}, rules)
	base := srv.Generation()
	deadline := time.Now().Add(300 * time.Millisecond)
	var swaps atomic.Uint64
	var wg sync.WaitGroup

	wg.Add(1) // operator: body reloads
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := srv.ReloadTenantFrom(DefaultTenant, bytes.NewReader(blob.Bytes()), "operator"); err != nil {
				t.Error(err)
				return
			}
			swaps.Add(1)
		}
	}()
	wg.Add(1) // maintainer: unconditional pushes
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := srv.InstallTenant(DefaultTenant, parse(), "maintainer"); err != nil {
				t.Error(err)
				return
			}
			swaps.Add(1)
		}
	}()
	wg.Add(1) // maintainer: CAS-retry pushes
	go func() {
		defer wg.Done()
		gen := srv.Generation()
		for time.Now().Before(deadline) {
			cur, ok, err := srv.InstallIfGeneration(parse(), "cas", gen)
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				swaps.Add(1)
			}
			gen = cur // failure hands back the fresh token; success our own
		}
	}()
	for i := 0; i < 4; i++ { // predict traffic throughout
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, _ := json.Marshal(map[string]any{"tuple": encodeTuple(rel.Schema, rel.Tuples[0])})
			for time.Now().Before(deadline) {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict status %d mid-reload", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if got, want := srv.Generation(), base+swaps.Load(); got != want {
		t.Fatalf("generation %d after %d swaps from %d — lost or double-counted a swap (want %d)",
			got, swaps.Load(), base, want)
	}
}
