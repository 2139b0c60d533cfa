package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// units maps every metric BENCHMARK.json names to its unit.
func (bf benchmarkFile) units() map[string]string {
	out := map[string]string{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		out[m.Name] = m.Unit
	}
	return out
}

func TestBenchmarkJSONMatchesCrrperf(t *testing.T) {
	bf := loadBenchmark(t)
	var names, e2e, layers []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
	}
	var ran []string
	for _, w := range workloads {
		ran = append(ran, w.name)
	}
	if !reflect.DeepEqual(names, ran) {
		t.Errorf("BENCHMARK.json workloads %v, crrperf runs %v", names, ran)
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, crrperf emits %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layers, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, crrperf emits %v", layers, perLayerMetrics)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"cmd/crrperf"}) {
		t.Errorf("paths %v, want [cmd/crrperf]", bf.Paths)
	}
}

// quickOptions runs a workload on small inputs for about half a second.
func quickOptions(t *testing.T) options {
	return options{seed: 3, seconds: 0.5, quick: true, work: t.TempDir()}
}

// The discovery workloads run in process, so a quick run of each, untraced
// and traced, must emit every metric BENCHMARK.json lists with its unit.
func TestQuickDiscoveryEmitsEveryMetric(t *testing.T) {
	bf := loadBenchmark(t)
	units := bf.units()
	for _, name := range []string{"discover-airquality", "discover-ooc-electricity"} {
		w, _ := lookupWorkload(name)
		for _, traced := range []bool{false, true} {
			res, _, err := execute(context.Background(), quickOptions(t), w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d %v",
					name, traced, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			line, err := resultLine(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var got struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if g, ok := got.Metrics[m]; !ok || g.Unit != units[m] {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m, g, units[m])
				}
			}
			if res.RulesSHA == "" {
				t.Errorf("%s: no rules_sha256", name)
			}
		}
	}
}

// A run pinned to a rules_sha256 other than the one the rules hash to must
// fail, and runBenchmark must report it as incorrect.
func TestTamperedRulesSHAFailsTheRun(t *testing.T) {
	w, _ := lookupWorkload("discover-airquality")
	opts := quickOptions(t)
	res, _, err := execute(context.Background(), opts, w, false)
	if err != nil || !res.Correct {
		t.Fatalf("reference run: %v %v", err, res.Errors)
	}
	tampered := []byte(res.RulesSHA)
	tampered[0] ^= 1
	opts.wantSHA = string(tampered)
	err = runBenchmark(context.Background(), io.Discard, opts, w.name, 0, filepath.Join(opts.work, "run.json"))
	var ie incorrectError
	if !errors.As(err, &ie) {
		t.Fatalf("run with tampered rules_sha256: err = %v, want an incorrect run", err)
	}
	opts.wantSHA = res.RulesSHA
	if err := runBenchmark(context.Background(), io.Discard, opts, w.name, 0, filepath.Join(opts.work, "run.json")); err != nil {
		t.Fatalf("run with the true rules_sha256: %v", err)
	}
}
