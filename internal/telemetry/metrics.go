package telemetry

// Canonical metric names. Every producer (core discovery, compaction, the
// prediction index) and every consumer (CLI summary lines, internal/eval
// columns, tests) refers to these constants so the schema cannot drift.
const (
	// Discovery (Algorithm 1) hot-path metrics.
	MetricConditionsExpanded = "discover.conditions_expanded" // queue pops with a non-empty part
	MetricModelsTrained      = "discover.models_trained"      // Line 13 executions
	MetricModelsShared       = "discover.models_shared"       // Proposition 6 share hits (Lines 7–10)
	MetricShareTests         = "discover.share_tests"         // δ0 tests attempted against the model set F
	MetricForcedRules        = "discover.forced_rules"        // rules accepted at the MinSupport floor
	MetricQueueDepth         = "discover.queue_depth"         // condition-queue depth gauge (Max = high-water mark)
	MetricTrainTime          = "discover.train_time"          // per-model training durations
	MetricShareTestTime      = "discover.share_test_time"     // per-node share-scan durations

	// Hot-path performance-layer metrics (the part-workspace of hotpath.go):
	// how often the sufficient-statistics and caching fast paths actually
	// fire, so before/after comparisons can attribute speedups.
	MetricStatReuse      = "discover.stat_reuse"        // Line-13 fits served from accumulated Gram statistics (counter)
	MetricCacheHits      = "discover.column_cache_hits" // per-node feature materializations served by the column cache (counter)
	MetricShareScanWidth = "discover.share_scan_width"  // models scanned per single-pass share scan (value distribution)

	// Columnar-execution metrics (dataset.ColumnSet + the vectorized
	// predicate filters). Every layer that builds a columnar mirror or
	// narrows a selection vector reports through these, so the cost and the
	// effectiveness of the columnar engine are observable end to end.
	MetricColumnsBuild      = "columns.build_ns"    // counter: cumulative ns spent building ColumnSets
	MetricFilterSelectivity = "filter.selectivity"  // distribution: surviving fraction per vectorized filter sweep
	MetricFilterRowsScanned = "filter.rows_scanned" // counter: selection-vector entries scanned by vectorized filters

	// Compaction (Algorithm 2) metrics.
	MetricTranslations   = "compact.translations"    // rules rewritten via Translation
	MetricFusions        = "compact.fusions"         // Fusion merges
	MetricImplied        = "compact.implied"         // rules dropped as implied
	MetricSolverAttempts = "compact.solver_attempts" // translation-solver invocations

	// Prediction-index metrics (RuleSet.Predict).
	MetricIndexLookups = "predict.index_lookups" // prediction-index lookups
	MetricIndexMisses  = "predict.index_misses"  // lookups that fell back to the training mean

	// Induction-strategy metrics (the core strategy seam + the
	// internal/induction strategies). candidates_grown counts rule candidates
	// seeded and grown by growprune; rules_pruned counts emitted rules that
	// lost at least one predicate in the prune pass. Per-strategy run
	// counters are derived with InductionStrategyRuns below.
	MetricInductionCandidatesGrown = "induction.candidates_grown" // counter: growprune candidates seeded and grown
	MetricInductionRulesPruned     = "induction.rules_pruned"     // counter: rules that lost predicates in the prune pass

	// Out-of-core columnar store metrics (internal/colstore): the mmap'd
	// on-disk lane layer. bytes_mapped counts payload bytes mapped (or
	// heap-loaded on platforms without mmap) at store open; chunks_scanned
	// counts chunk visits through Store.ScanChunks, the unit the chunked
	// discovery and verification sweeps are budgeted in.
	MetricColstoreBytesMapped   = "colstore.bytes_mapped"   // counter: lane payload bytes mapped at open
	MetricColstoreChunksScanned = "colstore.chunks_scanned" // counter: chunk visits through ScanChunks

	// Verification metrics (internal/verify + crrverify): how many oracle
	// checks the differential harness executed and how many divergences it
	// found. A healthy run reports oracles_run > 0 and divergences == 0.
	MetricVerifyOraclesRun  = "verify.oracles_run" // counter: oracle checks executed
	MetricVerifyDivergences = "verify.divergences" // counter: divergences detected

	// Stream-maintenance metrics (internal/stream): the windowed ingestion
	// and incremental re-fit layer. rows_ingested counts appends accepted
	// into the sliding window; refits counts per-rule model re-fits from the
	// carried sufficient statistics; drift_events counts refits whose max
	// residual exceeded ρM, each sent to re-validation on an independently
	// re-derived selection; retires counts the drift events that
	// re-validation confirmed, dropping the rule; rebuilds counts carried
	// Grams rebuilt from scratch after losing numerical health (the
	// downdate-cancellation fallback); swaps counts refreshed rule sets
	// handed to the hot-reload hook.
	MetricStreamRowsIngested = "stream.rows_ingested" // counter: rows appended to the window
	MetricStreamRefits       = "stream.refits"        // counter: incremental per-rule model re-fits
	MetricStreamDriftEvents  = "stream.drift_events"  // counter: refits beyond ρM sent to re-validation
	MetricStreamRetires      = "stream.retires"       // counter: rules retired, ρM breach confirmed
	MetricStreamRebuilds     = "stream.rebuilds"      // counter: Gram statistics rebuilt after degeneracy
	MetricStreamSwaps        = "stream.swaps"         // counter: refreshed rule sets swapped out

	// Serving-layer metrics (internal/serve). Per-endpoint metrics are
	// derived with ServeRequests/ServeErrors/ServeLatency below.
	MetricServeInFlight     = "serve.in_flight"     // gauge: concurrently handled API requests (Max = high-water mark)
	MetricServeShed         = "serve.shed"          // counter: requests rejected with 429 at the in-flight limit
	MetricServeTimeouts     = "serve.timeouts"      // counter: requests aborted by the per-request deadline
	MetricServeReloads      = "serve.reloads"       // counter: successful rule-set hot reloads
	MetricServeReloadErrors = "serve.reload_errors" // counter: rejected reload attempts (artifact kept)

	// Artifact-registry metrics (internal/registry): the versioned,
	// content-addressed rule-artifact store behind multi-tenant serving.
	MetricRegistryPublishes = "registry.publishes" // counter: artifact versions published
	MetricRegistryRollbacks = "registry.rollbacks" // counter: active pointers moved to an older version
	MetricRegistryGCBlobs   = "registry.gc_blobs"  // counter: unreferenced blobs deleted by GC

	// Router metrics (internal/router): the stateless tenant-routing tier.
	MetricRouterForwards        = "router.forwards"         // counter: requests forwarded to an owning node
	MetricRouterFailovers       = "router.failovers"        // counter: forwards retried on the next ring replica
	MetricRouterQuotaRejections = "router.quota_rejections" // counter: requests rejected by per-tenant quota/in-flight caps
	MetricRouterTenantInFlight  = "router.tenant_inflight"  // gauge: in-flight requests of the busiest moment (Max = high-water mark)
	MetricRouterUpstreamErrors  = "router.upstream_errors"  // counter: forwards that failed on every candidate node

	// Cluster-membership metrics (internal/cluster).
	MetricClusterNodesUp      = "cluster.nodes_up"      // gauge: nodes currently probing healthy
	MetricClusterRingRebuilds = "cluster.ring_rebuilds" // counter: consistent-hash ring rebuilds on membership change
)

// InductionStrategyRuns names the per-strategy discovery-run counter, e.g.
// "induction.strategy.lattice". The discovery seam bumps it once per run, so
// /metrics and the CLI summaries report which strategy produced the rules.
func InductionStrategyRuns(name string) string { return "induction.strategy." + name }

// ServeRequests names the request counter of one serving endpoint, e.g.
// "serve.predict.requests". The endpoint is the trailing path segment of the
// route ("predict", "check", ...).
func ServeRequests(endpoint string) string { return "serve." + endpoint + ".requests" }

// ServeErrors names the error counter (4xx/5xx responses) of one endpoint.
func ServeErrors(endpoint string) string { return "serve." + endpoint + ".errors" }

// ServeLatency names the latency histogram of one serving endpoint.
func ServeLatency(endpoint string) string { return "serve." + endpoint + ".latency" }

// Phase names for wall-clock phase timing (duration histograms). CLIs time
// their pipeline phases under these names and print them in this order.
const (
	PhaseLoad       = "phase.load"       // input parsing
	PhasePredicates = "phase.predicates" // predicate-space generation
	PhaseDiscover   = "phase.discover"   // Algorithm 1
	PhaseCompact    = "phase.compact"    // Algorithm 2 (+ pruning/window merging)
	PhaseEvaluate   = "phase.evaluate"   // scoring / output rendering
)

// Phases lists the phase names in pipeline order, for stable summary lines.
func Phases() []string {
	return []string{PhaseLoad, PhasePredicates, PhaseDiscover, PhaseCompact, PhaseEvaluate}
}
