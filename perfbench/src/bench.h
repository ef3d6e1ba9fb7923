// Shared pieces of the planner benchmark: the workload definitions, the
// single-threaded reference every answer is checked against, the answer
// checks, and small timing helpers. See README.md in the parent directory.
#ifndef P2_PERFBENCH_BENCH_H_
#define P2_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "engine/service.h"
#include "server/wire_protocol.h"
#include "topology/cluster.h"

namespace p2bench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
/// User + system CPU seconds of the whole process (getrusage).
double CpuSeconds();
/// Peak resident set size of the process in MB (VmHWM).
double PeakRssMb();

double Median(std::vector<double> values);
/// Exact rank-based percentile of sorted samples: the value at rank
/// ceil(p/100 * n), clamped to [1, n].
template <class T>
double PercentileOfSorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}
/// Samples ranked above percentile p of n.
std::int64_t SamplesBeyond(std::int64_t n, double p);

/// The tail percentile every latency metric reports. At the benchmark's
/// run length every workload has at least 50 samples beyond it, while p99
/// would have fewer than ten on guided-racked; on wire-small, on a shared
/// 4-core VM, p99 measures host interference (0.37 to 5.4 ms across ten runs
/// of the same code), so it is only a note.
inline constexpr double kTailPercentile = 90.0;

/// The seeded generator behind every order and mix the benchmark draws.
using Rng = std::mt19937_64;
/// Fisher-Yates with the generator's raw output, so an order depends only
/// on the seed, not on the standard library's distributions.
std::vector<int> SeededPermutation(int n, Rng& rng);

/// One distinct planning request of a workload.
struct Request {
  int id = 0;              ///< index into Workload::requests
  std::string system;      ///< wire preset name ("a100"/"v100"), else empty
  int nodes = 1;
  p2::topology::Cluster cluster;
  p2::engine::ExperimentConfig config;
  int top_k = -1;          ///< < 0 measures every program
};

enum class Kind { kGridMeasure, kGuidedRacked, kWireSmall };

struct Workload {
  Kind kind = Kind::kGridMeasure;
  std::string name;
  std::vector<p2::topology::Cluster> clusters;  ///< the tenants
  std::vector<Request> requests;                ///< every distinct request
};

/// Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name);
/// Payload 50 MB per GPU, ring, every knob else at its default.
p2::engine::EngineOptions BenchEngineOptions();
p2::engine::PlanRequest ToPlanRequest(const Request& request);
p2::server::PlanWireRequest ToWireRequest(const Request& request);

/// The answers of a fresh single-threaded in-process service, one per
/// distinct request — the oracle every later answer must equal byte for
/// byte.
struct Reference {
  std::vector<std::string> texts;  ///< CanonicalResultText, by request id
  /// Sums of the reference pipeline's own stage timers (cold cache, one
  /// thread, the staged scheduler), in seconds.
  double pipeline_total_s = 0.0;
  double pipeline_synthesis_s = 0.0;
  double pipeline_evaluation_s = 0.0;
  /// The three answer-quality metrics (see Quality).
  double best_speedup_geomean = 0.0;
  double outperform_share = 0.0;
  double top10_accuracy = 0.0;
  /// Requests that rank more than 10 measured programs: only on these can
  /// top10_accuracy's check fail.
  std::int64_t top10_decisive = 0;
  /// Guided top-k candidates the pipeline's early stopping left unmeasured.
  std::int64_t guided_skipped = 0;
  /// Requests whose independent answer checks failed (CheckAnswer).
  std::int64_t checks_failed = 0;
  std::int64_t checks_run = 0;
};

/// Plans every request of `workload` on a fresh single-threaded service, in
/// `order`, and runs CheckAnswer on each result. With a non-empty
/// `cache_file` the service persists its synthesis cache there afterwards.
/// `results` (optional) receives the full results by request id.
Reference PlanReference(const Workload& workload, const std::vector<int>& order,
                        const std::string& cache_file,
                        std::vector<p2::engine::ExperimentResult>* results);

/// Independent checks of one answer: every placement's reported best program
/// and its default AllReduce are re-lowered from the synthesis hierarchy,
/// replayed on the full system (CheckLoweredOnFullSystem), re-predicted and
/// re-measured through the benchmark's own Engine, and must reproduce the
/// reported seconds exactly. False with a reason on the first mismatch.
bool CheckAnswer(const p2::engine::Engine& engine, const Request& request,
                 const p2::engine::ExperimentResult& result,
                 std::string* error);

/// best_speedup_geomean, outperform_share and top10_accuracy over the
/// results of every distinct request (see README.md for the definitions).
void Quality(const std::vector<p2::engine::ExperimentResult>& results,
             Reference* reference);

/// Client and pool size of every workload: at most the 4 cores the
/// benchmark was sized on.
inline constexpr int kClients = 4;
inline constexpr int kPoolThreads = 4;
/// Repeats of the layer timings in the traced run; each figure is their
/// median.
inline constexpr int kSetupRepeats = 25;
/// The timed phase of grid-measure and wire-small runs in kSegments equal
/// parts, with a round of kSetupsPerRound set-ups before each; guided-racked
/// sets up a service before each of its passes. setup_s, the median of all
/// of them, so samples the shared host's speed across the whole run: a
/// single block of set-ups lands in one fast or slow spell.
inline constexpr int kSegments = 10;
inline constexpr int kSetupsPerRound = 10;

/// Hands out request ids pass by pass: each pass is a fresh seeded
/// permutation of every distinct request. A new pass starts only while
/// fewer than `max_passes` have started and the deadline has not passed, so
/// a timed phase always ends on a pass boundary and its request mix is
/// exactly balanced.
class Dispenser {
 public:
  Dispenser(int num_requests, Rng* rng, int max_passes,
            Clock::time_point deadline = Clock::time_point::max());
  bool Next(int* id);
  int passes() const;

 private:
  mutable std::mutex mu_;
  const int num_requests_;
  Rng* rng_;
  const int max_passes_;
  const Clock::time_point deadline_;
  std::vector<int> order_;
  std::size_t next_ = 0;
  int passes_ = 0;
};

/// Latencies counted into fixed log-linear bins of nanoseconds: exact below
/// 2^kSubBits ns, and above that 2^kSubBits bins per octave, so a value is
/// kept to within 2^-kSubBits (0.1%) of itself. The bins are allocated and
/// zeroed at the first sample, so the benchmark's own memory does not grow
/// with the request count and cannot move peak_rss_mb with throughput.
class LatencyBins {
 public:
  void Add(double seconds);
  void Merge(const LatencyBins& other);
  std::int64_t count() const { return count_; }
  double sum_s() const { return sum_s_; }
  /// The sample at rank ceil(p/100 * n), clamped to [1, n], as the middle
  /// of its bin, in seconds; 0 without samples.
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr int kMaxOctave = 38;  // 2^38 ns, about 275 s
  static constexpr std::size_t kBins =
      static_cast<std::size_t>(kMaxOctave - kSubBits + 2) << kSubBits;

  std::vector<std::uint32_t> bins_;
  std::int64_t count_ = 0;
  double sum_s_ = 0.0;
};

/// Per-request latencies of one closed-loop phase.
struct Samples {
  LatencyBins latency;
  /// Caller-observed latency minus the pipeline's own total_seconds: the
  /// time a request spends outside the pipeline (service admission and
  /// queueing in process; plus the wire and the server on the wire). Only
  /// recorded when asked for (the traced run).
  LatencyBins outside_pipeline;
  std::int64_t completed = 0;
  /// Requests that failed, were refused, or answered something other than
  /// the reference text.
  std::int64_t failed = 0;

  void Merge(const Samples& other);
  void Record(double latency, double pipeline_total, bool outside);
};

Samples MergeAll(const std::vector<Samples>& per_client);

/// Closed loop in process: `clients` threads each Submit() the dispenser's
/// next request, wait for the result, and check it against the reference.
Samples RunInProcess(p2::engine::PlannerService& service,
                     const Workload& workload, const Reference& reference,
                     Dispenser& dispenser, int clients,
                     bool record_outside = false);

/// Closed loop over the wire to a PlannerServer on `port`. Each client
/// draws requests from its own seeded generator (tenant first, then
/// config), `requests_per_client` of them when that is positive and for
/// `seconds` otherwise. With `warm_up` each client
/// first sends one untimed pass over every request. `elapsed_s` and `cpu_s`
/// cover the phase after the last client finished warming up.
struct WireLoad {
  int clients = kClients;
  std::uint64_t seed = 1;
  std::int64_t requests_per_client = 0;
  double seconds = 0.0;
  bool warm_up = false;
  bool record_outside = false;
};
Samples RunWire(int port, const Workload& workload, const Reference& reference,
                const WireLoad& load, double* elapsed_s, double* cpu_s);

/// One named figure with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra lines for the human-readable summary and the results file.
  std::vector<std::string> notes;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir;
};

/// The shared service options of every workload: kPoolThreads workers and
/// the benchmark's engine options.
p2::engine::PlannerServiceOptions ServiceOptions();
/// A service ready to serve the workload: pool started, every tenant's
/// engine (topology, cost model, runtime substrate) constructed.
std::unique_ptr<p2::engine::PlannerService> MakeService(
    const Workload& workload, const p2::engine::PlannerServiceOptions& options);
/// Where a run keeps the synthesis-cache file of its wire-small server.
std::string CacheFilePath(const RunOptions& options, const Workload& workload);

/// The untraced run: end-to-end metrics only.
Outcome RunMeasured(const Workload& workload, const RunOptions& options);
/// The traced run: per-layer metrics only.
Outcome RunTraced(const Workload& workload, const RunOptions& options);

}  // namespace p2bench

#endif  // P2_PERFBENCH_BENCH_H_
