// The untraced runs: closed loops through PlannerService::Submit and
// through PlannerServer, reporting the end-to-end metrics.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "engine/report.h"
#include "server/planner_client.h"
#include "server/planner_server.h"

namespace p2bench {

Dispenser::Dispenser(int num_requests, Rng* rng, int max_passes,
                     Clock::time_point deadline)
    : num_requests_(num_requests),
      rng_(rng),
      max_passes_(max_passes),
      deadline_(deadline) {}

bool Dispenser::Next(int* id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_ == order_.size()) {
    if (passes_ >= max_passes_ || Clock::now() >= deadline_) return false;
    order_ = SeededPermutation(num_requests_, *rng_);
    next_ = 0;
    ++passes_;
  }
  *id = order_[next_++];
  return true;
}

int Dispenser::passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_;
}

void Samples::Record(double latency_s, double pipeline_total, bool outside) {
  latency.Add(latency_s);
  if (outside) outside_pipeline.Add(latency_s - pipeline_total);
}

void Samples::Merge(const Samples& other) {
  latency.Merge(other.latency);
  outside_pipeline.Merge(other.outside_pipeline);
  completed += other.completed;
  failed += other.failed;
}

Samples MergeAll(const std::vector<Samples>& per_client) {
  Samples merged;
  for (const auto& s : per_client) merged.Merge(s);
  return merged;
}

Samples RunInProcess(p2::engine::PlannerService& service,
                     const Workload& workload, const Reference& reference,
                     Dispenser& dispenser, int clients,
                     bool record_outside) {
  std::vector<Samples> per_client(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Samples& samples = per_client[static_cast<std::size_t>(c)];
      int id = 0;
      while (dispenser.Next(&id)) {
        const auto& request = workload.requests[static_cast<std::size_t>(id)];
        const auto sent = Clock::now();
        try {
          const auto result = service.Submit(ToPlanRequest(request)).get();
          samples.Record(SecondsSince(sent), result.pipeline.total_seconds,
                         record_outside);
          if (p2::engine::CanonicalResultText(result) ==
              reference.texts[static_cast<std::size_t>(id)]) {
            ++samples.completed;
          } else {
            ++samples.failed;
            std::fprintf(stderr, "answer differs from the reference: %s\n",
                         request.config.ToString().c_str());
          }
        } catch (const std::exception& e) {
          samples.Record(SecondsSince(sent), 0.0, record_outside);
          ++samples.failed;
          std::fprintf(stderr, "request failed: %s\n", e.what());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return MergeAll(per_client);
}

Samples RunWire(int port, const Workload& workload, const Reference& reference,
                const WireLoad& load, double* elapsed_s, double* cpu_s) {
  std::vector<p2::server::PlanWireRequest> wires;
  std::vector<std::vector<int>> by_tenant(workload.clusters.size());
  for (const auto& request : workload.requests) {
    wires.push_back(ToWireRequest(request));
    for (std::size_t t = 0; t < workload.clusters.size(); ++t) {
      if (workload.clusters[t].Fingerprint() == request.cluster.Fingerprint()) {
        by_tenant[t].push_back(request.id);
      }
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  Clock::time_point start;
  double cpu_start = 0.0;
  const auto arrive = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (++ready == load.clients) {
      start = Clock::now();
      cpu_start = CpuSeconds();
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return ready == load.clients; });
    }
    return start;
  };

  std::vector<Samples> per_client(static_cast<std::size_t>(load.clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < load.clients; ++c) {
    threads.emplace_back([&, c] {
      Samples& samples = per_client[static_cast<std::size_t>(c)];
      Samples warm;  // warm-up answers are checked but not reported as time
      std::unique_ptr<p2::server::PlannerClient> client;
      const auto plan = [&](int id, Samples& into) {
        const auto sent = Clock::now();
        const auto response = client->Plan(wires[static_cast<std::size_t>(id)]);
        into.Record(SecondsSince(sent), response.stats.total_seconds,
                    load.record_outside);
        if (response.status == p2::server::WireStatus::kOk &&
            response.body == reference.texts[static_cast<std::size_t>(id)]) {
          ++into.completed;
        } else {
          ++into.failed;
          std::fprintf(stderr, "wire answer %d: %s %s\n", id,
                       p2::server::ToString(response.status),
                       response.message.c_str());
        }
      };
      try {
        client = std::make_unique<p2::server::PlannerClient>(port);
        if (load.warm_up) {
          for (int id = 0; id < static_cast<int>(wires.size()); ++id) {
            plan(id, warm);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
        client.reset();
        ++samples.failed;
      }
      samples.failed += warm.failed;
      const auto phase_start = arrive();
      if (client == nullptr) return;
      Rng rng(load.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(c));
      const auto deadline =
          phase_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(load.seconds));
      try {
        for (std::int64_t sent = 0;
             load.requests_per_client > 0 ? sent < load.requests_per_client
                                          : Clock::now() < deadline;
             ++sent) {
          const auto& tenant = by_tenant[rng() % by_tenant.size()];
          plan(tenant[rng() % tenant.size()], samples);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
        ++samples.failed;
      }
    });
  }
  for (auto& t : threads) t.join();
  *elapsed_s = SecondsSince(start);
  *cpu_s = CpuSeconds() - cpu_start;
  return MergeAll(per_client);
}

p2::engine::PlannerServiceOptions ServiceOptions() {
  p2::engine::PlannerServiceOptions options;
  options.threads = kPoolThreads;
  options.engine = BenchEngineOptions();
  return options;
}

std::unique_ptr<p2::engine::PlannerService> MakeService(
    const Workload& workload, const p2::engine::PlannerServiceOptions& options) {
  auto service = std::make_unique<p2::engine::PlannerService>(options);
  for (const auto& cluster : workload.clusters) service->EngineFor(cluster);
  return service;
}

namespace {

/// The timed phase of one run.
struct Timed {
  Samples samples;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> setups_s;
  std::string note;
};

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// One round of set-ups, each from nothing to a service that can serve the
/// workload's first request (on wire-small with its server bound), and each
/// torn down again untimed.
void SetUpRound(const Workload& workload,
                const p2::engine::PlannerServiceOptions& options,
                std::vector<double>* setups_s) {
  const bool wire = workload.kind == Kind::kWireSmall;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    const auto start = Clock::now();
    const auto service = MakeService(workload, options);
    std::unique_ptr<p2::server::PlannerServer> server;
    if (wire) server = std::make_unique<p2::server::PlannerServer>(*service);
    setups_s->push_back(SecondsSince(start));
    if (wire && (service->cache_load_status() != p2::engine::CacheLoadStatus::kOk ||
                 service->cache_entries_loaded() == 0)) {
      throw std::runtime_error("the server did not warm-start from " +
                               options.cache_file + ": " +
                               service->cache_load_message());
    }
  }  // the server shuts down before its service goes
}

/// One long-lived service, already warm; whole passes until each segment's
/// deadline.
Timed RunGridMeasure(const Workload& workload, const RunOptions& options,
                     Rng& rng, const Reference& reference,
                     p2::engine::PlannerService& service) {
  Timed timed;
  int passes = 0;
  for (int segment = 0; segment < kSegments; ++segment) {
    SetUpRound(workload, ServiceOptions(), &timed.setups_s);
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds();
    Dispenser dispenser(static_cast<int>(workload.requests.size()), &rng,
                        1 << 30, After(options.seconds / kSegments));
    timed.samples.Merge(
        RunInProcess(service, workload, reference, dispenser, kClients));
    timed.elapsed_s += SecondsSince(start);
    timed.cpu_s += CpuSeconds() - cpu_start;
    passes += dispenser.passes();
  }
  timed.note = "timed passes: " + std::to_string(passes);
  return timed;
}

/// A fresh service with a cold cache per pass; only the requests are timed.
/// Each pass's service is also a set-up sample, so these too are spread over
/// the run.
Timed RunGuidedRacked(const Workload& workload, const RunOptions& options,
                      Rng& rng, const Reference& reference) {
  Timed timed;
  int passes = 0;
  const auto run_start = Clock::now();
  while (passes == 0 || SecondsSince(run_start) < options.seconds) {
    const auto setup_start = Clock::now();
    const auto service = MakeService(workload, ServiceOptions());
    timed.setups_s.push_back(SecondsSince(setup_start));
    const auto pass_start = Clock::now();
    const double cpu_start = CpuSeconds();
    Dispenser pass(static_cast<int>(workload.requests.size()), &rng, 1);
    timed.samples.Merge(
        RunInProcess(*service, workload, reference, pass, kClients));
    timed.elapsed_s += SecondsSince(pass_start);
    timed.cpu_s += CpuSeconds() - cpu_start;
    ++passes;
  }
  if (static_cast<int>(timed.setups_s.size()) < kSetupsPerRound) {
    SetUpRound(workload, ServiceOptions(), &timed.setups_s);
  }
  timed.note = "passes: " + std::to_string(passes);
  return timed;
}

/// A server warm-started from the reference's cache file; 4 connections,
/// opened anew in every segment.
Timed RunWireSmall(const Workload& workload, const RunOptions& options,
                   Rng& rng, const std::string& cache_file,
                   const Reference& reference) {
  auto service_options = ServiceOptions();
  service_options.cache_file = cache_file;
  service_options.cache_readonly = true;

  Timed timed;
  const auto service = MakeService(workload, service_options);
  p2::server::PlannerServer server(*service);
  for (int segment = 0; segment < kSegments; ++segment) {
    SetUpRound(workload, service_options, &timed.setups_s);
    WireLoad load;
    load.seed = rng();
    load.seconds = options.seconds / kSegments;
    load.warm_up = segment == 0;
    double elapsed_s = 0.0;
    double cpu_s = 0.0;
    timed.samples.Merge(RunWire(server.port(), workload, reference, load,
                                &elapsed_s, &cpu_s));
    timed.elapsed_s += elapsed_s;
    timed.cpu_s += cpu_s;
  }
  timed.note = "cache entries loaded: " +
               std::to_string(service->cache_entries_loaded());
  return timed;
}

Outcome Report(const Workload& workload, const Reference& reference,
               const Samples& warm, Timed timed) {
  const LatencyBins& latency = timed.samples.latency;

  Outcome outcome;
  outcome.attempted =
      latency.count() + warm.latency.count() + reference.checks_run;
  outcome.failed = timed.samples.failed + warm.failed + reference.checks_failed;
  outcome.metrics = {
      {"plans_per_s",
       static_cast<double>(timed.samples.completed) / timed.elapsed_s, "1/s"},
      {"latency_p50_ms", latency.Percentile(50.0) * 1e3, "ms"},
      {"latency_tail_ms", latency.Percentile(kTailPercentile) * 1e3, "ms"},
      {"cpu_ms_per_plan",
       timed.cpu_s * 1e3 / static_cast<double>(latency.count()), "ms"},
      {"setup_s", Median(timed.setups_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"best_speedup_geomean", reference.best_speedup_geomean, "x"},
      {"top10_accuracy", reference.top10_accuracy, "ratio"},
  };
  char line[256];
  std::snprintf(line, sizeof(line),
                "latency_tail_ms is p%g with %lld of %lld samples beyond it; "
                "p99 %.6f ms",
                kTailPercentile,
                static_cast<long long>(
                    SamplesBeyond(latency.count(), kTailPercentile)),
                static_cast<long long>(latency.count()),
                latency.Percentile(99.0) * 1e3);
  outcome.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "outperform_share %.6f; guided candidates skipped %lld; "
                "top10_accuracy decisive on %lld of %zu requests",
                reference.outperform_share,
                static_cast<long long>(reference.guided_skipped),
                static_cast<long long>(reference.top10_decisive),
                workload.requests.size());
  outcome.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "failed_share %.6g (%lld failed of %lld attempted); %zu "
                "distinct requests",
                static_cast<double>(outcome.failed) /
                    static_cast<double>(outcome.attempted),
                static_cast<long long>(outcome.failed),
                static_cast<long long>(outcome.attempted),
                workload.requests.size());
  outcome.notes.push_back(line);
  outcome.notes.push_back(timed.note);
  auto setups = timed.setups_s;
  std::sort(setups.begin(), setups.end());
  std::snprintf(line, sizeof(line),
                "set-ups %zu: min %.6f p25 %.6f p50 %.6f p75 %.6f max %.6f ms",
                setups.size(), setups.front() * 1e3,
                PercentileOfSorted(setups, 25.0) * 1e3,
                PercentileOfSorted(setups, 50.0) * 1e3,
                PercentileOfSorted(setups, 75.0) * 1e3, setups.back() * 1e3);
  outcome.notes.push_back(line);
  return outcome;
}

}  // namespace

std::string CacheFilePath(const RunOptions& options, const Workload& workload) {
  return (std::filesystem::path(options.out_dir) /
          (workload.name + "-seed" + std::to_string(options.seed) + ".p2sc"))
      .string();
}

Outcome RunMeasured(const Workload& workload, const RunOptions& options) {
  Rng rng(options.seed);
  const auto order =
      SeededPermutation(static_cast<int>(workload.requests.size()), rng);
  std::string cache_file;
  if (workload.kind == Kind::kWireSmall) {
    cache_file = CacheFilePath(options, workload);
    std::filesystem::remove(cache_file);
  }
  const Reference reference =
      PlanReference(workload, order, cache_file, nullptr);

  // Every core works through the workload's requests for a while before
  // anything is timed: the virtual CPUs of the machine the benchmark was
  // sized on run at a fraction of their speed for about a second after an
  // idle spell. The answers are checked like all others. On grid-measure
  // this is also the warm-up of its long-lived service.
  constexpr double kWarmUpSeconds = 2.0;
  auto service = MakeService(workload, ServiceOptions());
  Dispenser warm_up(static_cast<int>(workload.requests.size()), &rng, 1 << 30,
                    After(kWarmUpSeconds));
  const Samples warm =
      RunInProcess(*service, workload, reference, warm_up, kClients);

  Timed timed;
  switch (workload.kind) {
    case Kind::kGridMeasure:
      timed = RunGridMeasure(workload, options, rng, reference, *service);
      break;
    case Kind::kGuidedRacked:
      service.reset();
      timed = RunGuidedRacked(workload, options, rng, reference);
      break;
    case Kind::kWireSmall:
      service.reset();
      timed = RunWireSmall(workload, options, rng, cache_file, reference);
      break;
  }
  return Report(workload, reference, warm, std::move(timed));
}

}  // namespace p2bench
