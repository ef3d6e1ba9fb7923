// Tests the simulator-guided evaluation workflow (paper Section 5's point):
// predict everything, measure only the top-k candidates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "engine/service.h"
#include "runtime/executor.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

Engine MakeEngine() {
  EngineOptions opts;
  opts.payload_bytes = 1e9;
  return Engine(topology::MakeA100Cluster(2), opts);
}

// Indices of `programs` in ascending predicted seconds, stable on ties: the
// order guided evaluation measures in.
std::vector<std::size_t> PredictionOrder(
    const std::vector<ProgramEvaluation>& programs) {
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return programs[a].predicted_seconds <
                            programs[b].predicted_seconds;
                   });
  return order;
}

TEST(GuidedEvaluation, MeasuresOnlyTopKPlusBaseline) {
  const auto eng = MakeEngine();
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const int k = 5;
  const auto eval = eng.EvaluatePlacementGuided(m, axes, k);
  int measured = 0;
  for (const auto& p : eval.programs) {
    if (p.measured) ++measured;
    EXPECT_GT(p.predicted_seconds, 0.0);  // everything predicted
  }
  // The top min(k, n) by prediction, plus the baseline when it is not among
  // them.
  const std::vector<std::size_t> order = PredictionOrder(eval.programs);
  const auto top = std::min(static_cast<std::size_t>(k), order.size());
  const auto top_end = order.begin() + static_cast<std::ptrdiff_t>(top);
  const bool baseline_in_top =
      std::find(order.begin(), top_end, std::size_t{0}) != top_end;
  EXPECT_EQ(measured, static_cast<int>(top) + (baseline_in_top ? 0 : 1));
  EXPECT_TRUE(eval.programs.front().measured);  // baseline always measured
  EXPECT_GT(static_cast<int>(eval.programs.size()), measured);
}

// Differential check of the guided workflow against measuring everything:
// each config is planned twice on one Engine, once guided at k and once
// with every program measured. Per placement the guided run must have
// measured exactly the default AllReduce plus the first k programs of the
// stable prediction order, with the full run's bits, and its best must be
// the exact minimum of the full run's measurements over that set — no
// heuristic may drop a candidate or measure an extra one.
void CheckGuidedAgainstFull(const topology::Cluster& cluster,
                            std::initializer_list<int> top_ks) {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  const Engine engine(cluster, opts);
  PlannerService service(engine, PlannerServiceOptions{.threads = 2});
  for (const ExperimentConfig& config : FullGrid(cluster)) {
    PlanRequest request;
    request.axes = config.axes;
    request.reduction_axes = config.reduction_axes;
    const ExperimentResult full = service.Plan(request);
    for (const int k : top_ks) {
      request.measure_top_k = k;
      const ExperimentResult guided = service.Plan(request);
      ASSERT_EQ(guided.placements.size(), full.placements.size());
      for (std::size_t pi = 0; pi < full.placements.size(); ++pi) {
        const auto& all = full.placements[pi].programs;
        const PlacementEvaluation& placement = guided.placements[pi];
        const auto& some = placement.programs;
        const std::string where = cluster.ToString() + " " +
                                  config.ToString() + " k=" +
                                  std::to_string(k) + " placement " +
                                  placement.matrix.ToString();
        ASSERT_EQ(some.size(), all.size()) << where;
        std::vector<bool> in_set(all.size(), false);
        in_set[0] = true;
        const std::vector<std::size_t> order = PredictionOrder(all);
        for (std::size_t r = 0;
             r < std::min(static_cast<std::size_t>(k), order.size()); ++r) {
          in_set[order[r]] = true;
        }
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < all.size(); ++i) {
          ASSERT_TRUE(all[i].measured) << where;
          EXPECT_EQ(some[i].text, all[i].text) << where << " program " << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(some[i].predicted_seconds),
                    std::bit_cast<std::uint64_t>(all[i].predicted_seconds))
              << where << " program " << i;
          EXPECT_EQ(some[i].measured, in_set[i])
              << where << " program " << i;
          if (!in_set[i]) continue;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(some[i].measured_seconds),
                    std::bit_cast<std::uint64_t>(all[i].measured_seconds))
              << where << " program " << i;
          best = std::min(best, all[i].measured_seconds);
        }
        const auto& guided_best =
            some[static_cast<std::size_t>(placement.BestMeasuredIndex())];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(guided_best.measured_seconds),
                  std::bit_cast<std::uint64_t>(best))
            << where;
      }
    }
  }
}

TEST(GuidedEvaluation, MeasuresExactlyThePredictedTopKOnEveryPresetGrid) {
  for (const topology::Cluster& cluster :
       {topology::MakeA100Cluster(2), topology::MakeA100Cluster(4),
        topology::MakeV100Cluster(2), topology::MakeV100Cluster(8)}) {
    CheckGuidedAgainstFull(cluster, {0, 1, 5, 20});
  }
}

TEST(GuidedEvaluation, MeasuresExactlyThePredictedTopKOnTheRackedGrid) {
  CheckGuidedAgainstFull(topology::MakeRackedA100Cluster(2, 2), {5});
}

TEST(GuidedEvaluation, FindsTheSameWinnerAsFullEvaluation) {
  // Table 5's conclusion: top-k accuracy is high enough that measuring only
  // the predicted top-10 recovers the true optimum.
  const auto eng = MakeEngine();
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto full = eng.EvaluatePlacement(m, axes);
  const auto guided = eng.EvaluatePlacementGuided(m, axes, 10);
  const auto& full_best =
      full.programs[static_cast<std::size_t>(full.BestMeasuredIndex())];
  const auto& guided_best =
      guided.programs[static_cast<std::size_t>(guided.BestMeasuredIndex())];
  EXPECT_NEAR(guided_best.measured_seconds, full_best.measured_seconds,
              full_best.measured_seconds * 0.02);
}

TEST(GuidedEvaluation, BestMeasuredIndexIgnoresUnmeasured) {
  const auto eng = MakeEngine();
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacementGuided(m, axes, 3);
  const int best = eval.BestMeasuredIndex();
  EXPECT_TRUE(eval.programs[static_cast<std::size_t>(best)].measured);
}

TEST(GuidedEvaluation, KZeroMeasuresOnlyBaseline) {
  const auto eng = MakeEngine();
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacementGuided(m, axes, 0);
  int measured = 0;
  for (const auto& p : eval.programs) {
    if (p.measured) ++measured;
  }
  EXPECT_EQ(measured, 1);
  EXPECT_EQ(eval.BestMeasuredIndex(), 0);
}

TEST(ExecutorTrace, TracesEveryStep) {
  const runtime::Executor exec(topology::MakeA100Cluster(2));
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto sh = core::SynthesisHierarchy::Build(
      m, axes, core::SynthesisHierarchyKind::kReductionAxes);
  // Hierarchy levels are [root 2 4]: local groups slice at level 1.
  const core::Program program = {
      core::Instruction{1, core::Form::InsideGroup(),
                        core::Collective::kReduceScatter},
      core::Instruction{1, core::Form::Parallel(0),
                        core::Collective::kAllReduce},
      core::Instruction{1, core::Form::InsideGroup(),
                        core::Collective::kAllGather}};
  const auto lowered = core::LowerProgram(sh, program);
  std::vector<runtime::StepTrace> trace;
  const double total =
      exec.MeasureProgram(lowered, 1e9, core::NcclAlgo::kRing, &trace);
  ASSERT_EQ(trace.size(), 3u);
  double sum = 0.0;
  for (const auto& t : trace) {
    EXPECT_GT(t.seconds, 0.0);
    EXPECT_GT(t.num_groups, 0);
    EXPECT_GT(t.flows_completed, 0);
    sum += t.seconds;
  }
  EXPECT_NEAR(sum, total, 1e-12);
  EXPECT_EQ(trace[0].op, core::Collective::kReduceScatter);
  EXPECT_EQ(trace[1].op, core::Collective::kAllReduce);
  // The cross-node AllReduce dominates.
  EXPECT_GT(trace[1].seconds, trace[0].seconds);
}

}  // namespace
}  // namespace p2::engine
