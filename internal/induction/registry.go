package induction

import (
	"fmt"
	"sort"
	"strings"

	"github.com/crrlab/crr/internal/core"
)

// strategies maps CLI names to fresh default-configured strategy values.
var strategies = map[string]func() core.Strategy{
	"lattice":   func() core.Strategy { return core.LatticeStrategy{} },
	"growprune": func() core.Strategy { return GrowPrune{} },
}

// Lookup resolves a strategy by its CLI name ("lattice", "growprune"), with
// default parameters.
func Lookup(name string) (core.Strategy, error) {
	if f, ok := strategies[strings.ToLower(strings.TrimSpace(name))]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("induction: unknown strategy %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(strategies))
	for n := range strategies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
