// Oracle tests of the pipeline's evaluation (engine/pipeline.h): placements
// are lowered through their signature group's shared program trie and
// costed by prefix sums over the step-cost memo. Every ProgramEvaluation
// must equal what lowering each program with core::LowerProgram and costing
// it with the uncached CostModel / Executor gives: the same programs after
// the default-AllReduce dedup, the same predicted and measured bits, the
// same guided measurement set and early-stopping count. Results must not
// depend on the thread count; the member evaluations of one group share its
// trie from several workers at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/lowering.h"
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
    double incumbent = eval.programs[0].measured_seconds;
    double overprediction = 1.0;
    const auto observe = [&](const ProgramEvaluation& p) {
      if (p.measured_seconds > 0.0) {
        overprediction =
            std::max(overprediction, p.predicted_seconds / p.measured_seconds);
        incumbent = std::min(incumbent, p.measured_seconds);
      }
    };
    observe(eval.programs[0]);
    for (std::size_t r = 0;
         r < static_cast<std::size_t>(top_k) && r < order.size(); ++r) {
      ProgramEvaluation& p = eval.programs[order[r]];
      if (p.measured) continue;
      if (p.predicted_seconds > incumbent * overprediction) {
        ++eval.guided_skipped;
        continue;
      }
      measure(order[r]);
      observe(p);
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
  EXPECT_EQ(actual.guided_skipped, expected.guided_skipped) << where;
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
// the 4-thread run against the oracle. Returns the guided measurements
// skipped over the grid.
std::int64_t CheckGrid(const Engine& engine, int top_k) {
  Oracle oracle(engine);
  PlannerService serial(engine, PlannerServiceOptions{.threads = 1});
  PlannerService parallel(engine, PlannerServiceOptions{.threads = 4});
  std::int64_t placements = 0;
  std::int64_t total_skipped = 0;
  for (const ExperimentConfig& config : FullGrid(engine.cluster())) {
    PlanRequest request;
    request.axes = config.axes;
    request.reduction_axes = config.reduction_axes;
    request.measure_top_k = top_k;
    const ExperimentResult result = parallel.Plan(request);
    EXPECT_EQ(CanonicalResultText(result),
              CanonicalResultText(serial.Plan(request)))
        << config.ToString();
    std::int64_t skipped = 0;
    for (const PlacementEvaluation& placement : result.placements) {
      ExpectSameEvaluation(
          placement,
          oracle.Evaluate(placement.matrix, config.reduction_axes, top_k),
          config.ToString());
      skipped += placement.guided_skipped;
      ++placements;
    }
    EXPECT_EQ(result.pipeline.guided_skipped, skipped) << config.ToString();
    total_skipped += skipped;
  }
  EXPECT_GT(placements, 0);
  return total_skipped;
}

TEST(PipelineOracle, EveryProgramMeasuredOnV100MatchesTheUncachedOracle) {
  const Engine engine(topology::MakeV100Cluster(2), SmallPayload());
  EXPECT_EQ(CheckGrid(engine, /*top_k=*/-1), 0);
}

TEST(PipelineOracle, GuidedTopFiveOnA100MatchesTheUncachedOracle) {
  const Engine engine(topology::MakeA100Cluster(4), SmallPayload());
  // Early stopping skips some top-5 candidates on this grid, so the lazy
  // measurement path is exercised both ways.
  EXPECT_GT(CheckGrid(engine, /*top_k=*/5), 0);
}

// Engine::EvaluatePlacement and EvaluatePlacementGuided run the cacheless
// pipeline on a list of one placement: one signature group per placement.
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

}  // namespace
}  // namespace p2::engine
