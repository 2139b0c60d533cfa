// Power monitor: CRRs as a streaming data-quality monitor on the
// Electricity stand-in. A derived minute-of-day attribute makes the daily
// appliance regimes recur into the same condition windows, so rules
// discovered on a warm-up window keep covering every later day: each
// arriving day is checked for violations (meter faults) against the rules
// as currently maintained, and the rest of the day enters a stream
// maintainer that refits the rules over a sliding two-day window without
// re-running discovery.
//
//	go run ./examples/powermonitor
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
	"github.com/crrlab/crr/internal/stream"
)

func main() {
	cfg := dataset.DefaultElectricityConfig()
	cfg.Rows = 7 * 1440 // one week of minutes
	raw := dataset.GenerateElectricity(cfg)

	// Feature engineering: minute-of-day phase, the recurrence axis.
	rawTime := raw.Schema.MustIndex("Time")
	week, err := dataset.DeriveNumeric(raw, "MinuteOfDay", func(t dataset.Tuple) (float64, bool) {
		if t[rawTime].Null {
			return 0, false
		}
		return math.Mod(t[rawTime].Num, 1440), true
	})
	if err != nil {
		log.Fatal(err)
	}
	schema := week.Schema
	mod := schema.MustIndex("MinuteOfDay")
	gap := schema.MustIndex("GlobalActivePower")

	// Warm-up: discover rules on the first two days, conditioned on phase.
	warm := dataset.NewRelation(schema)
	for _, t := range week.Tuples {
		if t[0].Num < 2*1440 {
			warm.Tuples = append(warm.Tuples, t)
		}
	}
	preds := predicate.Generate(warm, []int{mod}, predicate.GeneratorConfig{})
	dcfg := core.DiscoverConfig{
		XAttrs:     []int{mod},
		YAttr:      gap,
		RhoM:       0.5,
		Preds:      preds,
		Trainer:    regress.LinearTrainer{},
		FuseShared: true, // regimes sharing a model merge into one DNF rule
	}
	res, err := core.Discover(context.Background(), warm, core.WithConfig(dcfg))
	if err != nil {
		log.Fatal(err)
	}
	rules := res.Rules
	fmt.Printf("warm-up: %d rule(s), %d distinct regime model(s), %d share hits\n\n",
		rules.NumRules(), rules.NumModels(), res.Stats.ShareHits)

	// The maintainer keeps the rules current over the last two days.
	m, err := stream.New(rules, stream.Config{Window: 2 * 1440, RhoM: dcfg.RhoM})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range warm.Tuples {
		if err := m.Append(t); err != nil {
			log.Fatal(err)
		}
	}

	// Stream the remaining days.
	for day := 2; day < 7; day++ {
		arrived := dataset.NewRelation(schema)
		faults := map[int]bool{}
		for _, t := range week.Tuples {
			minute := t[0].Num
			if minute < float64(day)*1440 || minute >= float64(day+1)*1440 {
				continue
			}
			// Inject a stuck-meter fault on day 5, 12:00–12:30.
			if day == 5 && t[mod].Num >= 720 && t[mod].Num < 750 {
				t = t.Clone()
				t[gap] = dataset.Num(9.99)
				faults[arrived.Len()] = true
			}
			arrived.Tuples = append(arrived.Tuples, t)
		}

		// 1) Constraint check: flag the day's violations of the rules as
		//    maintained so far, before ingesting.
		quarantined := map[int]bool{}
		for _, v := range core.Violations(arrived, m.Snapshot()) {
			quarantined[v.TupleIndex] = true
		}
		flagged := 0
		for i := range faults {
			if quarantined[i] {
				flagged++
			}
		}

		// 2) Quarantine the violating tuples — ingesting a meter fault would
		//    pull the refit towards it — then maintain on the rest.
		for i, t := range arrived.Tuples {
			if quarantined[i] {
				continue
			}
			if err := m.Append(t); err != nil {
				log.Fatal(err)
			}
		}
		m.Refit()
		fmt.Printf("day %d: %4d tuples  %3d violations (injected faults: %2d, flagged: %2d)  "+
			"%d live rule(s), window coverage %.3f\n",
			day, arrived.Len()-len(quarantined), len(quarantined), len(faults), flagged,
			m.Live(), m.Coverage())
	}

	st := m.Stats()
	final := m.Snapshot()
	fmt.Printf("\nfinal: %d rule(s), %d model(s) for a full week after %d refits and %d retires — "+
		"the warm-up regimes served every recurring day\n",
		final.NumRules(), final.NumModels(), st.Refits, st.Retires)
}
