// Tests the per-engine step-cost memo (engine/step_memo.h): memoized
// program predictions and measurements must equal the uncached
// CostModel::PredictProgram and Executor::MeasureProgram bit for bit, on
// every program of the appendix grid, from any number of threads and after
// the memo's bound has forced shards to clear.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/lowering.h"
#include "core/placement.h"
#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

EngineOptions SmallPayload() {
  EngineOptions opts;
  opts.payload_bytes = 1e6;
  return opts;
}

// Every program the pipeline would evaluate for one config: for each
// placement, the default AllReduce plus every synthesized program, lowered.
std::vector<core::LoweredProgram> ConfigPrograms(const Engine& engine,
                                                 const ExperimentConfig& config) {
  std::vector<core::LoweredProgram> programs;
  for (const auto& matrix : engine.SynthesizePlacements(config.axes)) {
    const auto sh = core::SynthesisHierarchy::Build(
        matrix, config.reduction_axes, engine.options().hierarchy_kind,
        engine.options().collapse_hierarchy);
    programs.push_back(core::LowerProgram(sh, DefaultAllReduceProgram()));
    for (const auto& program :
         core::SynthesizePrograms(sh, engine.options().synthesis).programs) {
      programs.push_back(core::LowerProgram(sh, program));
    }
  }
  return programs;
}

struct Costs {
  std::vector<std::uint64_t> predicted;
  std::vector<std::uint64_t> measured;
};

Costs Uncached(const Engine& engine,
               const std::vector<core::LoweredProgram>& programs) {
  Costs costs;
  for (const auto& program : programs) {
    costs.predicted.push_back(
        std::bit_cast<std::uint64_t>(engine.cost_model().PredictProgram(
            program, engine.payload_bytes(), engine.options().algo)));
    costs.measured.push_back(
        std::bit_cast<std::uint64_t>(engine.executor().MeasureProgram(
            program, engine.payload_bytes(), engine.options().algo)));
  }
  return costs;
}

Costs Memoized(const Engine& engine,
               const std::vector<core::LoweredProgram>& programs) {
  Costs costs;
  for (const auto& program : programs) {
    costs.predicted.push_back(
        std::bit_cast<std::uint64_t>(engine.PredictProgram(program)));
    costs.measured.push_back(
        std::bit_cast<std::uint64_t>(engine.MeasureProgram(program)));
  }
  return costs;
}

void ExpectSameBits(const Costs& actual, const Costs& expected) {
  ASSERT_EQ(actual.predicted.size(), expected.predicted.size());
  ASSERT_EQ(actual.measured.size(), expected.measured.size());
  for (std::size_t i = 0; i < expected.predicted.size(); ++i) {
    EXPECT_EQ(actual.predicted[i], expected.predicted[i]) << "program " << i;
    EXPECT_EQ(actual.measured[i], expected.measured[i]) << "program " << i;
  }
}

topology::Cluster ClusterFor(const std::string& name) {
  if (name == "a100") return topology::MakeA100Cluster(2);
  if (name == "v100") return topology::MakeV100Cluster(2);
  return topology::MakeRackedA100Cluster(2, 2);
}

// A cluster's grid programs (every config of its appendix grid) and their
// uncached costs, built once per test binary: both tests below compare a
// fresh engine's memo against them. Configs are built on a few threads, as
// the racked grid's ~20k programs are slow to measure under sanitizers;
// the uncached CostModel and Executor are const-thread-safe.
struct GridCase {
  std::vector<core::LoweredProgram> programs;
  Costs expected;
};

const GridCase& CaseFor(const std::string& name) {
  static std::map<std::string, GridCase> cases;
  auto [it, inserted] = cases.try_emplace(name);
  if (!inserted) return it->second;
  const Engine engine(ClusterFor(name), SmallPayload());
  const auto configs = FullGrid(engine.cluster());
  std::vector<GridCase> per_config(configs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> builders;
  for (int t = 0; t < 4; ++t) {
    builders.emplace_back([&] {
      for (std::size_t c = next++; c < configs.size(); c = next++) {
        per_config[c].programs = ConfigPrograms(engine, configs[c]);
        per_config[c].expected = Uncached(engine, per_config[c].programs);
      }
    });
  }
  for (auto& builder : builders) builder.join();
  GridCase& grid = it->second;
  for (GridCase& part : per_config) {
    for (auto& program : part.programs) {
      grid.programs.push_back(std::move(program));
    }
    grid.expected.predicted.insert(grid.expected.predicted.end(),
                                   part.expected.predicted.begin(),
                                   part.expected.predicted.end());
    grid.expected.measured.insert(grid.expected.measured.end(),
                                  part.expected.measured.begin(),
                                  part.expected.measured.end());
  }
  return grid;
}

class StepMemoGrid : public ::testing::TestWithParam<std::string> {};

TEST_P(StepMemoGrid, MatchesUncachedBitForBitAndSecondPassComputesNothing) {
  const GridCase& grid = CaseFor(GetParam());
  ASSERT_FALSE(grid.programs.empty());
  const Engine engine(ClusterFor(GetParam()), SmallPayload());

  ExpectSameBits(Memoized(engine, grid.programs), grid.expected);
  const std::int64_t computed = engine.step_memo().computed();
  EXPECT_GT(computed, 0);
  EXPECT_LE(engine.step_memo().size(), StepCostMemo::kCapacity);

  // Every step is resident now: a second pass simulates and predicts
  // nothing, and returns the same bits.
  ExpectSameBits(Memoized(engine, grid.programs), grid.expected);
  EXPECT_EQ(engine.step_memo().computed(), computed);
}

TEST_P(StepMemoGrid, ConcurrentWorkersGetIdenticalBits) {
  const GridCase& grid = CaseFor(GetParam());
  const Engine engine(ClusterFor(GetParam()), SmallPayload());

  constexpr int kThreads = 8;
  std::vector<Costs> results(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(
        [&, t] { results[t] = Memoized(engine, grid.programs); });
  }
  for (auto& worker : workers) worker.join();
  for (const Costs& result : results) ExpectSameBits(result, grid.expected);
}

INSTANTIATE_TEST_SUITE_P(Clusters, StepMemoGrid,
                         ::testing::Values("a100", "v100", "racked"));

TEST(StepMemo, AnswersStayIdenticalAfterShardsClear) {
  const Engine engine(topology::MakeA100Cluster(2), SmallPayload());
  // Distinct synthetic steps: one AllReduce over a 2-GPU group, each with
  // its own in_fraction.
  const auto step_program = [](int i) {
    core::LoweredProgram program;
    core::LoweredStep step;
    step.op = core::Collective::kAllReduce;
    step.groups = {{i % 2 == 0 ? 0 : 8, i % 2 == 0 ? 1 : 9}};
    step.ComputeSortedOrders();
    step.in_fraction = 1.0 / (1.0 + i);
    step.out_fraction = step.in_fraction;
    program.steps.push_back(std::move(step));
    return program;
  };
  const int n = static_cast<int>(StepCostMemo::kCapacity) * 5 / 4;
  const auto check = [&](int i) {
    const auto program = step_program(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.PredictProgram(program)),
              std::bit_cast<std::uint64_t>(engine.cost_model().PredictProgram(
                  program, engine.payload_bytes(), engine.options().algo)))
        << "step " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.MeasureProgram(program)),
              std::bit_cast<std::uint64_t>(engine.executor().MeasureProgram(
                  program, engine.payload_bytes(), engine.options().algo)))
        << "step " << i;
  };
  for (int i = 0; i < n; ++i) check(i);
  EXPECT_EQ(engine.step_memo().computed(), 2 * n);
  EXPECT_LE(engine.step_memo().size(), StepCostMemo::kCapacity);
  // The earliest steps were cleared out with their shards: they are
  // computed again, to the same bits.
  for (int i = 0; i < 64; ++i) check(i);
  EXPECT_GT(engine.step_memo().computed(), 2 * n);
  EXPECT_LE(engine.step_memo().size(), StepCostMemo::kCapacity);
}

}  // namespace
}  // namespace p2::engine
