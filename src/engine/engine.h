// The P2 tool, end to end (paper Sections 3-5): enumerate parallelism
// placements, synthesize reduction programs per placement, lower them,
// predict their cost with the analytic model and measure them on the
// runtime substrate, and rank the results. An Engine memoizes step costs
// (engine/step_memo.h), so each distinct lowered step is predicted and
// measured once over the Engine's lifetime.
#ifndef P2_ENGINE_ENGINE_H_
#define P2_ENGINE_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/collective.h"
#include "core/lowering.h"
#include "core/parallelism_matrix.h"
#include "core/synthesizer.h"
#include "cost/cost_model.h"
#include "engine/step_memo.h"
#include "runtime/executor.h"
#include "topology/cluster.h"

namespace p2::engine {

struct EngineOptions {
  core::NcclAlgo algo = core::NcclAlgo::kRing;
  /// Per-GPU payload in bytes. The paper uses 2^29 * num_nodes float32.
  double payload_bytes = 0.0;  // 0 => the paper's default for the cluster
  core::SynthesisOptions synthesis;
  /// Collapse same-hardware-level factors in the synthesis hierarchy
  /// (Table 1 step 3; the ablation bench turns this off).
  bool collapse_hierarchy = true;
  core::SynthesisHierarchyKind hierarchy_kind =
      core::SynthesisHierarchyKind::kReductionAxes;
  /// Skip the runtime-substrate measurement (prediction only).
  bool measure = true;
};

/// Stage and cache statistics of the evaluation pipeline run that produced
/// an ExperimentResult (engine/pipeline.h). Wall-clock fields vary run to
/// run; the placements, programs and predictions are deterministic. The
/// cache counters are *this request's own lookups* — under concurrent
/// requests sharing one PlannerService, which request takes the miss for a
/// shared signature depends on arrival order, so sums across requests are
/// stable but the per-request split can vary. Service-wide figures (entries
/// preloaded from disk, totals across requests) live in
/// PlannerServiceStats, reported once per service instead of being repeated
/// per experiment.
struct PipelineStats {
  std::int64_t num_placements = 0;
  std::int64_t unique_hierarchies = 0;  ///< distinct synthesis signatures
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Lookups that blocked on another request's in-flight synthesis of the
  /// same signature instead of re-synthesizing (each still counts as a hit
  /// or, if the finished entry could not serve this cap, a miss). Zero
  /// whenever the pipeline defers, which never blocks — see
  /// cache_deferred_lookups.
  std::int64_t cache_dedup_waits = 0;
  /// Lookups that found another request's in-flight synthesis and deferred
  /// (re-enqueued through a completion continuation while the worker ran
  /// other tasks) instead of parking — the non-blocking counterpart of
  /// cache_dedup_waits, taken on a threaded pool under
  /// PipelineOptions::defer_inflight. Like cache_dedup_waits this count
  /// depends on cross-request arrival order; only the sum of hits+misses
  /// is per-request deterministic.
  std::int64_t cache_deferred_lookups = 0;
  /// Hits served by entries another tenant's query synthesized (a subset of
  /// cache_hits; zero on a single-tenant service) — the cross-cluster
  /// sharing a multi-tenant PlannerService exists for.
  std::int64_t cache_cross_tenant_hits = 0;
  /// Persistent-cache figures (engine/cache_store.h); all zero unless the
  /// service was given a cache file.
  std::int64_t cache_disk_hits = 0;  ///< hits served by on-disk entries
  /// Hits served by fetching a foreign worker's entry from the remote cache
  /// plane (engine/remote_cache.h; a subset of cache_hits). Zero unless the
  /// service was given a remote cache backend — the cross-process sharing
  /// the sharded grid runner (tools/p2_shard) exists for.
  std::int64_t cache_remote_hits = 0;
  /// Transposition-search totals (core::SynthesisStats) summed over the
  /// placements, counterfactually like TotalSynthesisSeconds: placements
  /// served from the signature cache contribute the stats of the shared
  /// run, so the sums are deterministic regardless of cache state.
  std::int64_t synth_states_visited = 0;
  std::int64_t synth_states_deduped = 0;
  std::int64_t synth_branches_pruned = 0;
  /// Always 0: guided evaluation measures exactly the predicted top-k and
  /// skips nothing. Kept only because perfbench (perfbench/src/checks.cc)
  /// still reads it.
  std::int64_t guided_skipped = 0;
  double synthesis_seconds_saved = 0.0;  ///< re-synthesis avoided by the cache
  double disk_seconds_saved = 0.0;       ///< portion saved across runs (disk)
  /// Time actually spent synthesizing: the summed wall-clock of the
  /// synthesis runs this request performed itself (its cache misses).
  /// Synthesis and evaluation tasks interleave on the pool, so this is task
  /// time, not a stage's span.
  double synthesis_seconds = 0.0;
  /// Replicate/predict/measure time: the summed wall-clock of the
  /// per-placement evaluation tasks. Program tries (core/program_trie.h) are built inside
  /// the cache lookups, by the owner of a synthesis or on an entry's first
  /// serve, and count toward total_seconds only.
  double evaluation_seconds = 0.0;
  double total_seconds = 0.0;
  int threads = 1;
};

/// One synthesized (or baseline) program, evaluated.
struct ProgramEvaluation {
  core::Program program;
  std::string text;                ///< human-readable DSL form
  int num_steps = 0;
  double predicted_seconds = 0.0;  ///< analytic model (the paper's simulator)
  double measured_seconds = 0.0;   ///< runtime substrate (the "testbed")
  bool measured = false;           ///< false under guided evaluation
  bool is_default_allreduce = false;
};

/// All programs of one parallelism placement.
struct PlacementEvaluation {
  core::ParallelismMatrix matrix;
  /// Wall-clock of synthesizing this placement's program set. When the
  /// pipeline serves the set from the signature cache this is the original
  /// synthesis time of the shared run (what a cacheless evaluation would
  /// have spent), so summing it across placements gives the counterfactual
  /// serial cost; the wall-clock actually spent synthesizing is
  /// ExperimentResult::pipeline.synthesis_seconds.
  double synthesis_seconds = 0.0;
  core::SynthesisStats synthesis_stats;
  std::vector<ProgramEvaluation> programs;  ///< [0] is the default AllReduce

  const ProgramEvaluation& DefaultAllReduce() const { return programs.front(); }
  /// Index of the measured-best program among those actually measured. When
  /// nothing was measured (measure = false, or guided evaluation with
  /// measure_top_k = 0 before the baseline) falls back to the predicted-best
  /// index, so the result is a valid index whenever `programs` is non-empty
  /// (as every evaluated placement is; both return -1 on an empty vector).
  int BestMeasuredIndex() const;
  int BestPredictedIndex() const;
  /// Programs measurably faster than the default AllReduce (with a small
  /// relative tolerance so that byte-identical schedules do not count).
  /// Zero when the default AllReduce itself was never measured.
  int NumOutperforming() const;
};

/// One experiment: a cluster + parallelism axes + reduction axes + algo.
struct ExperimentResult {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
  core::NcclAlgo algo = core::NcclAlgo::kRing;
  double payload_bytes = 0.0;
  std::vector<PlacementEvaluation> placements;
  PipelineStats pipeline;  ///< statistics of the run that produced this

  std::int64_t TotalPrograms() const;
  std::int64_t TotalOutperforming() const;
  /// Counterfactual serial synthesis cost (see
  /// PlacementEvaluation::synthesis_seconds); the wall-clock actually spent
  /// is pipeline.synthesis_seconds.
  double TotalSynthesisSeconds() const;
};

class Engine {
 public:
  Engine(topology::Cluster cluster, EngineOptions options = {});

  const topology::Cluster& cluster() const { return cluster_; }
  const EngineOptions& options() const { return options_; }
  double payload_bytes() const { return payload_bytes_; }
  /// The analytic model and the runtime substrate. Both are const-thread-safe
  /// over their immutable topology::Network, so pipeline workers share them.
  /// They are uncached: the independent oracle that checks what the
  /// memoized PredictProgram / MeasureProgram below return.
  const cost::CostModel& cost_model() const { return cost_model_; }
  const runtime::Executor& executor() const { return executor_; }

  /// The program's predicted / measured seconds at this engine's payload and
  /// algo, through the engine's step-cost memo (engine/step_memo.h): each
  /// distinct lowered step is evaluated once, and the totals are
  /// bit-identical to cost_model().PredictProgram and
  /// executor().MeasureProgram. Thread-safe.
  double PredictProgram(const core::LoweredProgram& program) const {
    return step_memo_.PredictProgram(program);
  }
  double MeasureProgram(const core::LoweredProgram& program) const {
    return step_memo_.MeasureProgram(program);
  }
  /// One step's costs through the memo in one lookup (StepCostMemo::Costs).
  /// Every prediction and measurement the pipeline makes goes through it:
  /// it costs each distinct step of a placement this way and sums programs
  /// itself, in the order PredictProgram / MeasureProgram would.
  StepCostMemo::StepCosts StepCosts(const core::LoweredStep& step,
                                    bool predict, bool measure,
                                    StepCostMemo::Key& key) const {
    return step_memo_.Costs(step, predict, measure, key);
  }
  /// The memo itself, for tests (its computed() count).
  const StepCostMemo& step_memo() const { return step_memo_; }

  /// The paper's payload: 2^29 * num_nodes float32 elements per GPU.
  static double DefaultPayloadBytes(const topology::Cluster& cluster);

  /// Enumerates every placement of `axes` on the cluster's hierarchy.
  std::vector<core::ParallelismMatrix> SynthesizePlacements(
      std::span<const std::int64_t> axes) const;

  /// Synthesizes, lowers, predicts and measures all programs (plus the
  /// default single-step AllReduce) for one placement.
  PlacementEvaluation EvaluatePlacement(const core::ParallelismMatrix& matrix,
                                        std::span<const int> reduction_axes) const;

  /// Simulator-guided evaluation (the paper's Section 5 workflow): predict
  /// every program with the analytic model, but *measure* only the default
  /// AllReduce and the first `measure_top_k` programs of the stable
  /// prediction order. This is how P2 avoids evaluating hundreds of
  /// candidates on the real system.
  PlacementEvaluation EvaluatePlacementGuided(
      const core::ParallelismMatrix& matrix,
      std::span<const int> reduction_axes, int measure_top_k) const;

  /// Full experiment over every placement of `axes`, through the pipeline
  /// (engine/pipeline.h) on a one-shot single-threaded service: placements
  /// inducing isomorphic synthesis hierarchies share one synthesis run.
  /// Callers that want threads or cross-query sharing hold a
  /// PlannerService themselves.
  ExperimentResult RunExperiment(std::span<const std::int64_t> axes,
                                 std::span<const int> reduction_axes) const;

  /// Evaluates a single DSL program on a placement (used by examples).
  ProgramEvaluation EvaluateProgram(const core::SynthesisHierarchy& sh,
                                    const core::Program& program) const;

 private:
  topology::Cluster cluster_;
  EngineOptions options_;
  double payload_bytes_ = 0.0;
  cost::CostModel cost_model_;
  runtime::Executor executor_;
  /// Refers to the members above, so an Engine is neither copied nor moved
  /// (the memo's mutexes already forbid both).
  mutable StepCostMemo step_memo_;
};

}  // namespace p2::engine

#endif  // P2_ENGINE_ENGINE_H_
