// Oracle tests of the pipeline's evaluation (engine/pipeline.h): placements
// are lowered through their signature group's shared program trie and
// costed by prefix sums over the step-cost memo. Every ProgramEvaluation
// must equal what lowering each program with core::LowerProgram and costing
// it with the uncached CostModel / Executor gives: the same programs after
// the default-AllReduce dedup, the same predicted and measured bits, the
// same guided measurement set (the default AllReduce plus the first k of the
// stable prediction order). Results must not depend on the thread count;
// the member evaluations of one group share its trie from several workers
// at once. The tries live in the service's synthesis cache, so warm passes
// and other tenants with the same signatures read the objects the first
// pass built.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/lowering.h"
#include "core/program_trie.h"
#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "engine/report.h"
#include "engine/service.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

EngineOptions SmallPayload() {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  return opts;
}

// The evaluation of one placement derived program by program: lowered with
// core::LowerProgram and costed by the uncached cost model and executor.
// `top_k` < 0 measures every program, >= 0 runs guided evaluation.
class Oracle {
 public:
  explicit Oracle(const Engine& engine) : engine_(engine) {}

  PlacementEvaluation Evaluate(const core::ParallelismMatrix& matrix,
                               const std::vector<int>& reduction_axes,
                               int top_k) {
    const auto sh = core::SynthesisHierarchy::Build(
        matrix, reduction_axes, engine_.options().hierarchy_kind,
        engine_.options().collapse_hierarchy);
    auto [it, inserted] = programs_of_.try_emplace(sh.Signature());
    if (inserted) {
      it->second =
          core::SynthesizePrograms(sh, engine_.options().synthesis).programs;
    }
    PlacementEvaluation eval;
    eval.matrix = matrix;
    std::vector<core::LoweredProgram> lowered;
    const auto add = [&](const core::Program& program) {
      ProgramEvaluation& p = eval.programs.emplace_back();
      p.program = program;
      p.text = core::ToString(program, sh.level_names());
      p.num_steps = static_cast<int>(program.size());
      p.predicted_seconds = engine_.cost_model().PredictProgram(
          lowered.back(), engine_.payload_bytes(), engine_.options().algo);
    };
    lowered.push_back(core::LowerProgram(sh, DefaultAllReduceProgram()));
    add(DefaultAllReduceProgram());
    eval.programs.front().is_default_allreduce = true;
    for (const core::Program& program : it->second) {
      core::LoweredProgram l = core::LowerProgram(sh, program);
      if (l.steps.size() == 1 &&
          l.steps[0].op == core::Collective::kAllReduce &&
          l.steps[0].groups == lowered.front().steps[0].groups) {
        continue;
      }
      lowered.push_back(std::move(l));
      add(program);
    }
    const auto measure = [&](std::size_t i) {
      eval.programs[i].measured_seconds = engine_.executor().MeasureProgram(
          lowered[i], engine_.payload_bytes(), engine_.options().algo);
      eval.programs[i].measured = true;
    };
    if (top_k < 0) {
      for (std::size_t i = 0; i < eval.programs.size(); ++i) measure(i);
      return eval;
    }
    std::vector<std::size_t> order(eval.programs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return eval.programs[a].predicted_seconds <
                              eval.programs[b].predicted_seconds;
                     });
    measure(0);
    for (std::size_t r = 0;
         r < static_cast<std::size_t>(top_k) && r < order.size(); ++r) {
      if (!eval.programs[order[r]].measured) measure(order[r]);
    }
    return eval;
  }

 private:
  const Engine& engine_;
  std::map<std::string, std::vector<core::Program>> programs_of_;
};

void ExpectSameEvaluation(const PlacementEvaluation& actual,
                          const PlacementEvaluation& expected,
                          const std::string& where) {
  ASSERT_EQ(actual.programs.size(), expected.programs.size()) << where;
  for (std::size_t i = 0; i < expected.programs.size(); ++i) {
    const ProgramEvaluation& a = actual.programs[i];
    const ProgramEvaluation& e = expected.programs[i];
    const std::string at = where + " program " + std::to_string(i);
    EXPECT_EQ(a.program, e.program) << at;
    EXPECT_EQ(a.text, e.text) << at;
    EXPECT_EQ(a.num_steps, e.num_steps) << at;
    EXPECT_EQ(a.is_default_allreduce, e.is_default_allreduce) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_seconds),
              std::bit_cast<std::uint64_t>(e.predicted_seconds))
        << at;
    EXPECT_EQ(a.measured, e.measured) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.measured_seconds),
              std::bit_cast<std::uint64_t>(e.measured_seconds))
        << at;
  }
}

// Plans every config of the cluster's appendix grid at 1 and 4 threads,
// checks the two renderings are identical, and checks every placement of
// the 4-thread run against the oracle. Returns the programs the grid left
// unmeasured.
std::int64_t CheckGrid(const Engine& engine, int top_k) {
  Oracle oracle(engine);
  PlannerService serial(engine, PlannerServiceOptions{.threads = 1});
  PlannerService parallel(engine, PlannerServiceOptions{.threads = 4});
  std::int64_t placements = 0;
  std::int64_t unmeasured = 0;
  for (const ExperimentConfig& config : FullGrid(engine.cluster())) {
    PlanRequest request;
    request.axes = config.axes;
    request.reduction_axes = config.reduction_axes;
    request.measure_top_k = top_k;
    const ExperimentResult result = parallel.Plan(request);
    EXPECT_EQ(CanonicalResultText(result),
              CanonicalResultText(serial.Plan(request)))
        << config.ToString();
    for (const PlacementEvaluation& placement : result.placements) {
      ExpectSameEvaluation(
          placement,
          oracle.Evaluate(placement.matrix, config.reduction_axes, top_k),
          config.ToString());
      unmeasured += std::count_if(
          placement.programs.begin(), placement.programs.end(),
          [](const ProgramEvaluation& p) { return !p.measured; });
      ++placements;
    }
  }
  EXPECT_GT(placements, 0);
  return unmeasured;
}

TEST(PipelineOracle, EveryProgramMeasuredOnV100MatchesTheUncachedOracle) {
  const Engine engine(topology::MakeV100Cluster(2), SmallPayload());
  EXPECT_EQ(CheckGrid(engine, /*top_k=*/-1), 0);
}

TEST(PipelineOracle, GuidedTopFiveOnA100MatchesTheUncachedOracle) {
  const Engine engine(topology::MakeA100Cluster(4), SmallPayload());
  // Top-5 leaves programs unmeasured on this grid, so the lazy chain-measure
  // path runs on some prefixes and not on others.
  EXPECT_GT(CheckGrid(engine, /*top_k=*/5), 0);
}

// Engine::EvaluatePlacement and EvaluatePlacementGuided run the pipeline on
// a list of one placement, through a service whose cache starts empty.
TEST(PipelineOracle, SinglePlacementEntryPointsMatchTheOracle) {
  const Engine engine(topology::MakeV100Cluster(2), SmallPayload());
  Oracle oracle(engine);
  for (const ExperimentConfig& config : FullGrid(engine.cluster())) {
    for (const core::ParallelismMatrix& matrix :
         engine.SynthesizePlacements(config.axes)) {
      ExpectSameEvaluation(
          engine.EvaluatePlacement(matrix, config.reduction_axes),
          oracle.Evaluate(matrix, config.reduction_axes, -1),
          config.ToString());
      ExpectSameEvaluation(
          engine.EvaluatePlacementGuided(matrix, config.reduction_axes, 2),
          oracle.Evaluate(matrix, config.reduction_axes, 2),
          config.ToString());
    }
  }
}

using TrieBySignature =
    std::map<std::string, std::shared_ptr<const core::ProgramTrie>>;

// Plans every config of `engine`'s grid on `service` (under the engine's
// cluster, so a multi-tenant service resolves it to `engine`'s tenant),
// checks every placement against the oracle, and returns the trie the
// service's cache holds for each signature the grid planned.
TrieBySignature PlanGridAgainstTheOracle(PlannerService& service,
                                         const Engine& engine, int top_k,
                                         std::int64_t* misses) {
  Oracle oracle(engine);
  TrieBySignature tries;
  for (const ExperimentConfig& config : FullGrid(engine.cluster())) {
    PlanRequest request;
    request.axes = config.axes;
    request.reduction_axes = config.reduction_axes;
    request.measure_top_k = top_k;
    request.cluster = engine.cluster();
    const ExperimentResult result = service.Plan(request);
    *misses += result.pipeline.cache_misses;
    for (const PlacementEvaluation& placement : result.placements) {
      ExpectSameEvaluation(
          placement,
          oracle.Evaluate(placement.matrix, config.reduction_axes, top_k),
          config.ToString());
      const auto sh = core::SynthesisHierarchy::Build(
          placement.matrix, config.reduction_axes,
          engine.options().hierarchy_kind,
          engine.options().collapse_hierarchy);
      std::shared_ptr<const core::ProgramTrie> trie;
      service.cache().GetOrSynthesize(sh, engine.options().synthesis, nullptr,
                                      SynthesisCache::kNoTenant, &trie);
      EXPECT_NE(trie, nullptr) << config.ToString();
      tries.emplace(SynthesisCache::BaseKey(sh, engine.options().synthesis),
                    std::move(trie));
    }
  }
  EXPECT_FALSE(tries.empty());
  return tries;
}

// A warm pass builds no trie: every signature group reads the object the
// cold pass left in its cache entry, and both passes match the oracle.
TEST(PipelineOracle, WarmPassesReadTheTriesTheColdPassBuilt) {
  const Engine a100(topology::MakeA100Cluster(2), SmallPayload());
  PlannerService service(a100, PlannerServiceOptions{.threads = 4});
  const Engine& v100 = service.EngineFor(topology::MakeV100Cluster(2));
  std::int64_t cold_misses = 0;
  const TrieBySignature cold_a100 =
      PlanGridAgainstTheOracle(service, a100, /*top_k=*/5, &cold_misses);
  const TrieBySignature cold_v100 =
      PlanGridAgainstTheOracle(service, v100, /*top_k=*/-1, &cold_misses);
  EXPECT_GT(cold_misses, 0);

  std::int64_t warm_misses = 0;
  const TrieBySignature warm_a100 =
      PlanGridAgainstTheOracle(service, a100, /*top_k=*/5, &warm_misses);
  const TrieBySignature warm_v100 =
      PlanGridAgainstTheOracle(service, v100, /*top_k=*/-1, &warm_misses);
  EXPECT_EQ(warm_misses, 0);
  const auto expect_same_objects = [](const TrieBySignature& cold,
                                      const TrieBySignature& warm) {
    ASSERT_EQ(warm.size(), cold.size());
    for (const auto& [signature, trie] : cold) {
      EXPECT_EQ(warm.at(signature).get(), trie.get()) << signature;
    }
  };
  expect_same_objects(cold_a100, warm_a100);
  expect_same_objects(cold_v100, warm_v100);
}

// Tenants of one service with different machines share the trie objects
// of the signatures they share, and each tenant's answers stay the
// oracle's.
TEST(PipelineOracle, TenantsShareTheTriesOfSharedSignatures) {
  PlannerServiceOptions options;
  options.threads = 4;
  options.engine = SmallPayload();
  PlannerService service(options);
  const Engine& a100 = service.EngineFor(topology::MakeA100Cluster(1));
  const Engine& v100 = service.EngineFor(topology::MakeV100Cluster(2));
  std::int64_t misses = 0;
  const TrieBySignature on_a100 =
      PlanGridAgainstTheOracle(service, a100, /*top_k=*/5, &misses);
  const TrieBySignature on_v100 =
      PlanGridAgainstTheOracle(service, v100, /*top_k=*/5, &misses);
  int shared = 0;
  for (const auto& [signature, trie] : on_a100) {
    const auto it = on_v100.find(signature);
    if (it == on_v100.end()) continue;
    EXPECT_EQ(it->second.get(), trie.get()) << signature;
    ++shared;
  }
  EXPECT_GT(shared, 0);
}

}  // namespace
}  // namespace p2::engine
