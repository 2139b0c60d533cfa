package eval

import (
	"fmt"
	"strings"

	"github.com/crrlab/crr/internal/telemetry"
)

// TelemetrySummary renders a snapshot as the human-readable summary lines the
// CLIs print after a run: one "telemetry:" line with the discovery counters
// the paper's cost model is built on (conditions expanded, models trained,
// models shared), one "phases:" line with wall time per pipeline phase, and
// — when induction-strategy, compaction or prediction-index metrics were
// recorded — one line each for those. Returns nil for an empty snapshot, so
// an uninstrumented run prints nothing.
func TelemetrySummary(snap telemetry.Snapshot) []string {
	var lines []string
	if line := counterLine("telemetry", snap, [][2]string{
		{telemetry.MetricConditionsExpanded, "conditions expanded"},
		{telemetry.MetricModelsTrained, "models trained"},
		{telemetry.MetricModelsShared, "models shared"},
		{telemetry.MetricShareTests, "share tests"},
		{telemetry.MetricForcedRules, "forced rules"},
		{telemetry.MetricStatReuse, "stat reuse"},
	}); line != "" {
		lines = append(lines, line)
	}
	if line := counterLine("induction", snap, [][2]string{
		{telemetry.MetricInductionCandidatesGrown, "candidates grown"},
		{telemetry.MetricInductionRulesPruned, "rules pruned"},
	}); line != "" {
		lines = append(lines, line)
	}
	if line := counterLine("compaction", snap, [][2]string{
		{telemetry.MetricTranslations, "translations"},
		{telemetry.MetricFusions, "fusions"},
		{telemetry.MetricImplied, "implied dropped"},
		{telemetry.MetricSolverAttempts, "solver attempts"},
	}); line != "" {
		lines = append(lines, line)
	}
	if line := counterLine("prediction", snap, [][2]string{
		{telemetry.MetricIndexLookups, "index lookups"},
		{telemetry.MetricIndexMisses, "index misses"},
	}); line != "" {
		lines = append(lines, line)
	}
	var phases []string
	for _, name := range telemetry.Phases() {
		d, ok := snap.Durations[name]
		if !ok || d.Count == 0 {
			continue
		}
		phases = append(phases, fmt.Sprintf("%s=%s",
			strings.TrimPrefix(name, "phase."), telemetry.FormatDuration(d.Total)))
	}
	if len(phases) > 0 {
		lines = append(lines, "phases: "+strings.Join(phases, " "))
	}
	return lines
}

// counterLine renders "<prefix>: label=v, ..." over the metrics present in
// the snapshot, or "" when none were recorded.
func counterLine(prefix string, snap telemetry.Snapshot, metrics [][2]string) string {
	var parts []string
	for _, m := range metrics {
		if v, ok := snap.Counters[m[0]]; ok {
			parts = append(parts, fmt.Sprintf("%s=%d", m[1], v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return prefix + ": " + strings.Join(parts, ", ")
}
