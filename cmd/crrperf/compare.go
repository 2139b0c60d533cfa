package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare reads.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// comparePairs is the number of paired runs -compare makes per workload.
const comparePairs = 10

// runResult is the last line a single-workload run prints, with the
// rules_sha256 its result file holds.
type runResult struct {
	RulesSHA  string `json:"-"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCompare measures two checkouts, parent and change, with the benchmark
// both carry, in comparePairs pairs per workload (every workload, or only
// wname): pair i runs both sides with seed+i, the parent first in even
// pairs and the change first in odd ones. It then judges every end-to-end
// metric on every workload against its bound. A workload on which the two
// sides produced different rules from the same seed is not judged: its
// verdicts are unresolved, and the digests of the first differing pair are
// printed.
func runCompare(ctx context.Context, w io.Writer, parentDir, changeDir string, seed int64, wname string) error {
	pb, err := os.ReadFile(filepath.Join(parentDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	cb, err := os.ReadFile(filepath.Join(changeDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if !bytes.Equal(pb, cb) {
		return fmt.Errorf("BENCHMARK.json differs between %s and %s: both sides must run the same benchmark", parentDir, changeDir)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(pb, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.Command) == 0 {
		return fmt.Errorf("BENCHMARK.json: empty command")
	}
	sides := []string{parentDir, changeDir}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange/parent\tverdict\tdetail")
	for _, wl := range spec.Workloads {
		if wname != "all" && wl.Name != wname {
			continue
		}
		// values[side][metric] holds one value per pair.
		values := [2]map[string][]float64{{}, {}}
		rulesDiffer := ""
		for i := 0; i < comparePairs; i++ {
			var shas [2]string
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, s := range order {
				res, err := runSide(ctx, sides[s], spec, wl.Name, seed+int64(i))
				if err != nil {
					return fmt.Errorf("%s, %s, pair %d: %w", sides[s], wl.Name, i, err)
				}
				for name, m := range res.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
				shas[s] = res.RulesSHA
			}
			if shas[0] != shas[1] && rulesDiffer == "" {
				rulesDiffer = fmt.Sprintf("rules differ (seed %d: parent %s, change %s)", seed+int64(i), shortSHA(shas[0]), shortSHA(shas[1]))
			}
			fmt.Fprintf(os.Stderr, "crrperf: %s pair %d/%d done\n", wl.Name, i+1, comparePairs)
		}
		for _, m := range spec.EndToEnd {
			p, c := values[0][m.Name], values[1][m.Name]
			v, detail := judge(p, c, m.Better == "higher", m.Bound)
			if rulesDiffer != "" {
				v, detail = unresolved, rulesDiffer
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4f (base: parent median %.6g %s)\t%s\t%s\n",
				wl.Name, m.Name, summary(p, m.Unit), summary(c, m.Unit),
				median(c)/median(p), median(p), m.Unit, v, detail)
		}
	}
	return tw.Flush()
}

// summary renders a metric's median and quartiles.
func summary(xs []float64, unit string) string {
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("%.6g %s (n=%d)", median(xs), unit, len(xs))
	}
	return fmt.Sprintf("%.6g %s [%.6g, %.6g]", q2, unit, q1, q3)
}

// shortSHA abbreviates a digest for a table cell.
func shortSHA(sha string) string {
	if sha == "" {
		return "(none)"
	}
	return sha[:min(12, len(sha))]
}

// compareOut is the result file of a -compare run, relative to the
// checkout it ran in.
var compareOut = filepath.Join(".bench_build", "crrperf", "compare-run.json")

// runSide runs one untraced single-workload run of the benchmark in dir,
// parses its last line and reads the run's rules_sha256 from its result
// file.
func runSide(ctx context.Context, dir string, spec benchmarkSpec, workload string, seed int64) (*runResult, error) {
	args := append(append([]string(nil), spec.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0", "-out", compareOut)
	cmd := exec.CommandContext(ctx, spec.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s%s", err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run failed: correct=%v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
	}
	b, err := os.ReadFile(filepath.Join(dir, compareOut))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Results []struct {
			RulesSHA string `json:"rules_sha256"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Results) != 1 {
		return nil, fmt.Errorf("%s: not the result of one run (%v)", compareOut, err)
	}
	res.RulesSHA = doc.Results[0].RulesSHA
	return &res, nil
}
