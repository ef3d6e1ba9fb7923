// The per-query executor behind the planning service (engine/service.h)
// and Engine::RunExperiment / EvaluatePlacement:
//
//   enumerate placements -> dedup by synthesis-hierarchy signature
//     -> synthesize once per signature (memoized in the service's shared
//        SynthesisCache, with cross-request in-flight dedup); the cache
//        hands back the program list with its prefix trie, lowered on the
//        synthesis hierarchy (core/program_trie.h) once per cache entry,
//        so a warm request builds no trie
//     -> per placement, in parallel: replicate the trie's distinct steps
//        onto its devices, cost them through the Engine's step-cost memo
//        (each distinct lowered step is predicted and measured once per
//        Engine), and sum programs as prefix sums down the trie;
//        guided requests measure only the chains they need
//     -> merge in placement order
//
// A Pipeline is stateless: it borrows the process-wide cache and worker
// pool from its PlannerService and holds only per-query options, so any
// number of pipelines (one per in-flight request) share synthesis results
// and threads. One work loop runs every query: a resolve task per
// signature group on a ThreadPool::TaskGroup of the shared pool, which
// fans out one evaluation task per placement once its group's synthesis
// and trie are in hand; those tasks share the trie read-only. A served
// list that does not lower (a corrupt preloaded entry) fails the request
// with core::LowerProgram's message. Concurrent requests' tasks interleave fairly. Results are
// written into preallocated slots and merged in enumeration order, which
// makes the parallel output byte-identical to the serial path (modulo
// wall-clock timing fields).
#ifndef P2_ENGINE_PIPELINE_H_
#define P2_ENGINE_PIPELINE_H_

#include <cstdint>
#include <span>

#include "common/cancel.h"
#include "core/program_trie.h"
#include "engine/engine.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {

class PlannerService;

/// Per-query knobs. Process-wide concerns — thread count, cache
/// persistence — live in PlannerServiceOptions.
struct PipelineOptions {
  /// < 0: measure every program iff the engine's options say so (the classic
  /// full-evaluation path). >= 0: simulator-guided evaluation (paper
  /// Section 5) — predict everything, then measure the default AllReduce
  /// and the first k programs of the stable prediction order, and nothing
  /// else.
  int measure_top_k = -1;
  /// The requesting tenant's id (engine/service.h), passed through to the
  /// shared cache so cross-tenant reuse is attributable; kNoTenant for
  /// single-tenant callers.
  std::int64_t tenant = SynthesisCache::kNoTenant;
  /// This request's cooperative-cancellation token (common/cancel.h),
  /// checked between stages and between per-placement work items, and
  /// threaded into the synthesizer's frontier loop. An aborted run throws
  /// CancelledError / DeadlineExceededError out of Run(); work items of
  /// *other* requests sharing the pool are untouched. Null (the default)
  /// never cancels.
  CancelToken cancel;
  /// Defer instead of park on another request's in-flight synthesis: a
  /// signature group owned elsewhere re-enqueues itself through a
  /// SynthesisCache::TryLookup continuation while the worker runs other
  /// pending tasks — other placements, evaluations, even whole queued
  /// requests — so no pool thread ever blocks on a foreign synthesis
  /// (stats: cache_deferred_lookups up, cache_dedup_waits and the
  /// service-wide waiter_parks pinned to 0). Off — and always on an inline
  /// pool, where nothing could commit a deferred task — the group blocks in
  /// SynthesisCache::GetOrSynthesize instead (the tail-latency baseline
  /// bench_pipeline's contended variant measures against). Outputs are
  /// byte-identical either way.
  bool defer_inflight = true;
};

class Pipeline {
 public:
  /// The service must outlive the pipeline (it supplies the cache and the
  /// pool; typically the service itself constructs one per request, after
  /// resolving `engine` from the request's cluster through the tenant
  /// registry).
  Pipeline(PlannerService& service, const Engine& engine,
           PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  /// Runs the full pipeline over every placement of `axes`. The result's
  /// `pipeline` field carries this run's stage statistics and this
  /// *request's* share of the cache activity (see PipelineStats).
  ExperimentResult Run(std::span<const std::int64_t> axes,
                       std::span<const int> reduction_axes);

  /// The same run over a caller-supplied placement list (result.axes stays
  /// empty); Engine::EvaluatePlacement passes a list of one.
  ExperimentResult Run(std::span<const core::ParallelismMatrix> placements,
                       std::span<const int> reduction_axes);

 private:
  /// Evaluates one placement. `trie` is its signature group's program
  /// list — the default AllReduce, then `synthesis.programs` — lowered on
  /// the synthesis hierarchy, as the cache served it; this replicates and
  /// costs its distinct steps on `sh`.
  PlacementEvaluation Evaluate(const core::ParallelismMatrix& matrix,
                               const core::SynthesisHierarchy& sh,
                               const core::SynthesisResult& synthesis,
                               const core::ProgramTrie& trie) const;

  PlannerService& service_;
  const Engine& engine_;
  PipelineOptions options_;
};

/// Lowers, predicts and optionally measures one program through the
/// engine's step-cost memo, one lookup per step (Engine::EvaluateProgram).
ProgramEvaluation EvaluateProgramOnEngine(const Engine& engine,
                                          const core::SynthesisHierarchy& sh,
                                          const core::Program& program,
                                          bool measure);

}  // namespace p2::engine

#endif  // P2_ENGINE_PIPELINE_H_
