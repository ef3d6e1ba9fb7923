// The reference answers and the independent answer checks.
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "core/lowering.h"
#include "core/synthesis_hierarchy.h"
#include "engine/report.h"

namespace p2bench {

namespace {

bool CheckProgram(const p2::engine::Engine& engine,
                  const p2::core::SynthesisHierarchy& sh,
                  const p2::engine::ProgramEvaluation& program,
                  std::string* error) {
  const auto lowered = p2::core::LowerProgram(sh, program.program);
  std::string why;
  if (!p2::core::CheckLoweredOnFullSystem(sh, lowered, &why)) {
    *error = "replay on the full system failed: " + why;
    return false;
  }
  const double predicted = engine.cost_model().PredictProgram(
      lowered, engine.payload_bytes(), engine.options().algo);
  if (predicted != program.predicted_seconds) {
    *error = "re-predicted seconds differ from the reported ones";
    return false;
  }
  if (!program.measured) {
    *error = "the reported program was never measured";
    return false;
  }
  const double measured = engine.executor().MeasureProgram(
      lowered, engine.payload_bytes(), engine.options().algo);
  if (measured != program.measured_seconds) {
    *error = "re-measured seconds differ from the reported ones";
    return false;
  }
  return true;
}

}  // namespace

bool CheckAnswer(const p2::engine::Engine& engine, const Request& request,
                 const p2::engine::ExperimentResult& result,
                 std::string* error) {
  if (result.placements.empty()) {
    *error = "no placements";
    return false;
  }
  for (const auto& placement : result.placements) {
    if (placement.programs.empty() ||
        !placement.DefaultAllReduce().is_default_allreduce) {
      *error = "placement without its default AllReduce";
      return false;
    }
    const auto sh = p2::core::SynthesisHierarchy::Build(
        placement.matrix, request.config.reduction_axes,
        engine.options().hierarchy_kind, engine.options().collapse_hierarchy);
    const int best = placement.BestMeasuredIndex();
    for (const int index : {0, best}) {
      if (!CheckProgram(engine, sh,
                        placement.programs[static_cast<std::size_t>(index)],
                        error)) {
        *error = request.config.ToString() + " " + placement.matrix.ToString() +
                 " program " + std::to_string(index) + ": " + *error;
        return false;
      }
    }
  }
  return true;
}

void Quality(const std::vector<p2::engine::ExperimentResult>& results,
             Reference* reference) {
  double log_speedup_sum = 0.0;
  std::int64_t placements = 0;
  std::int64_t outperforming = 0;
  std::int64_t experiments = 0;
  std::int64_t top10 = 0;
  for (const auto& result : results) {
    for (const auto& placement : result.placements) {
      const auto& best = placement.programs[static_cast<std::size_t>(
          placement.BestMeasuredIndex())];
      log_speedup_sum += std::log(placement.DefaultAllReduce().measured_seconds /
                                  best.measured_seconds);
      ++placements;
      if (placement.NumOutperforming() > 0) ++outperforming;
    }
    // Table 5's rank of the predicted-best program among the measured ones.
    // With every program measured this is AccuracyCounter's rank; under
    // guided evaluation unmeasured programs are left out instead of ranking
    // as 0-second winners.
    const p2::engine::ProgramEvaluation* predicted_best = nullptr;
    for (const auto& placement : result.placements) {
      for (const auto& program : placement.programs) {
        if (!program.measured) continue;
        if (predicted_best == nullptr ||
            program.predicted_seconds < predicted_best->predicted_seconds) {
          predicted_best = &program;
        }
      }
    }
    if (predicted_best == nullptr) continue;
    int rank = 0;
    int ranked = 0;
    for (const auto& placement : result.placements) {
      for (const auto& program : placement.programs) {
        if (!program.measured) continue;
        ++ranked;
        if (program.measured_seconds < predicted_best->measured_seconds) {
          ++rank;
        }
      }
    }
    ++experiments;
    if (rank < 10) ++top10;
    // With 10 or fewer programs ranked, the top 10 holds every one of them.
    if (ranked > 10) ++reference->top10_decisive;
  }
  reference->best_speedup_geomean =
      placements > 0 ? std::exp(log_speedup_sum / static_cast<double>(placements))
                     : 0.0;
  reference->outperform_share =
      placements > 0 ? static_cast<double>(outperforming) /
                           static_cast<double>(placements)
                     : 0.0;
  reference->top10_accuracy =
      experiments > 0
          ? static_cast<double>(top10) / static_cast<double>(experiments)
          : 0.0;
}

Reference PlanReference(const Workload& workload, const std::vector<int>& order,
                        const std::string& cache_file,
                        std::vector<p2::engine::ExperimentResult>* results) {
  p2::engine::PlannerServiceOptions options;
  options.threads = 1;
  options.engine = BenchEngineOptions();
  options.cache_file = cache_file;
  p2::engine::PlannerService service(options);

  // The checks run on the benchmark's own engines, not the service's.
  std::map<std::string, std::unique_ptr<p2::engine::Engine>> engines;
  for (const auto& cluster : workload.clusters) {
    engines[cluster.Fingerprint()] =
        std::make_unique<p2::engine::Engine>(cluster, BenchEngineOptions());
  }

  Reference reference;
  reference.texts.resize(workload.requests.size());
  std::vector<p2::engine::ExperimentResult> by_id(workload.requests.size());
  for (const int id : order) {
    const Request& request = workload.requests[static_cast<std::size_t>(id)];
    auto result = service.Plan(ToPlanRequest(request));
    reference.texts[static_cast<std::size_t>(id)] =
        p2::engine::CanonicalResultText(result);
    reference.pipeline_total_s += result.pipeline.total_seconds;
    reference.pipeline_synthesis_s += result.pipeline.synthesis_seconds;
    reference.pipeline_evaluation_s += result.pipeline.evaluation_seconds;
    reference.guided_skipped += result.pipeline.guided_skipped;
    std::string error;
    ++reference.checks_run;
    if (!CheckAnswer(*engines.at(request.cluster.Fingerprint()), request,
                     result, &error)) {
      ++reference.checks_failed;
      std::fprintf(stderr, "answer check failed: %s\n", error.c_str());
    }
    by_id[static_cast<std::size_t>(id)] = std::move(result);
  }
  if (!cache_file.empty()) {
    std::string error;
    if (!service.SaveCache(&error)) {
      throw std::runtime_error("cannot write the cache file: " + error);
    }
  }
  Quality(by_id, &reference);
  if (results != nullptr) *results = std::move(by_id);
  return reference;
}

}  // namespace p2bench
