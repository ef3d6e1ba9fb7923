#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "topology/presets.h"

namespace p2bench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over exec, so
  // under a launcher bigger than the benchmark it reads the launcher's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::int64_t SamplesBeyond(std::int64_t n, double p) {
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  return n - rank;
}

void LatencyBins::Add(double seconds) {
  if (bins_.empty()) bins_.assign(kBins, 0);
  ++count_;
  sum_s_ += seconds;
  // Clamped to [0, 2^(kMaxOctave + 1)) ns before the conversion.
  const double ns = std::min(
      std::round(seconds * 1e9),
      static_cast<double>((std::uint64_t{1} << (kMaxOctave + 1)) - 1));
  const std::uint64_t v = ns > 0.0 ? static_cast<std::uint64_t>(ns) : 0;
  std::size_t bin = static_cast<std::size_t>(v);
  if (v >= (std::uint64_t{1} << kSubBits)) {
    // Octave e keeps the kSubBits bits below its leading one.
    const int shift = std::bit_width(v) - 1 - kSubBits;
    bin = (static_cast<std::size_t>(shift) << kSubBits) +
          static_cast<std::size_t>(v >> shift);
  }
  ++bins_[bin];
}

void LatencyBins::Merge(const LatencyBins& other) {
  if (other.count_ == 0) return;
  if (bins_.empty()) bins_.assign(kBins, 0);
  for (std::size_t i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
  sum_s_ += other.sum_s_;
}

double LatencyBins::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  auto rank = static_cast<std::int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::int64_t>(rank, 1, count_);
  std::size_t bin = 0;
  for (std::int64_t seen = 0; bin < kBins; ++bin) {
    seen += bins_[bin];
    if (seen >= rank) break;
  }
  // Inverse of Add: bins below 2^(kSubBits + 1) hold one nanosecond each.
  const std::size_t shift =
      bin < (std::size_t{2} << kSubBits) ? 0 : (bin >> kSubBits) - 1;
  const double low = static_cast<double>((bin - (shift << kSubBits)) << shift);
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return (low + (width - 1.0) / 2.0) * 1e-9;
}

std::vector<int> SeededPermutation(int n, Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

p2::engine::EngineOptions BenchEngineOptions() {
  p2::engine::EngineOptions options;
  options.algo = p2::core::NcclAlgo::kRing;
  options.payload_bytes = 50e6;
  return options;
}

namespace {

void AddGrid(Workload* workload, const p2::topology::Cluster& cluster,
             const std::string& system, int nodes, int top_k) {
  workload->clusters.push_back(cluster);
  for (auto& config : p2::engine::FullGrid(cluster)) {
    Request request;
    request.id = static_cast<int>(workload->requests.size());
    request.system = system;
    request.nodes = nodes;
    request.cluster = cluster;
    request.config = std::move(config);
    request.top_k = top_k;
    workload->requests.push_back(std::move(request));
  }
}

}  // namespace

Workload MakeWorkload(const std::string& name) {
  Workload workload;
  workload.name = name;
  if (name == "grid-measure") {
    workload.kind = Kind::kGridMeasure;
    AddGrid(&workload, p2::topology::MakeV100Cluster(8), "v100", 8, -1);
  } else if (name == "guided-racked") {
    workload.kind = Kind::kGuidedRacked;
    AddGrid(&workload, p2::topology::MakeRackedA100Cluster(2, 2), "", 0, 5);
  } else if (name == "wire-small") {
    workload.kind = Kind::kWireSmall;
    AddGrid(&workload, p2::topology::MakeA100Cluster(1), "a100", 1, 1);
    AddGrid(&workload, p2::topology::MakeV100Cluster(1), "v100", 1, 1);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return workload;
}

p2::engine::PlanRequest ToPlanRequest(const Request& request) {
  p2::engine::PlanRequest plan;
  plan.axes = request.config.axes;
  plan.reduction_axes = request.config.reduction_axes;
  plan.measure_top_k = request.top_k;
  plan.cluster = request.cluster;
  return plan;
}

p2::server::PlanWireRequest ToWireRequest(const Request& request) {
  p2::server::PlanWireRequest wire;
  if (request.system.empty()) {
    wire.has_cluster = true;
    wire.cluster = request.cluster;
  } else {
    wire.preset_system = request.system;
    wire.preset_nodes = request.nodes;
  }
  wire.axes = request.config.axes;
  wire.reduction_axes = request.config.reduction_axes;
  wire.measure_top_k = request.top_k;
  return wire;
}

}  // namespace p2bench
