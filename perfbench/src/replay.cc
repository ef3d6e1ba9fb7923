// The traced run. It replays the workload's distinct requests once, in the
// seed's order, through each layer's public functions on one thread, with a
// span around every call into a layer; the spans are kept in memory and
// written out as a Chrome trace when the run ends. Each layer's self time
// (span duration minus the time its child spans cover) and its work counts
// become the per-layer metrics, together with the stage timers and cache
// and service counters the program itself reports.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "core/lowering.h"
#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/cache_store.h"
#include "engine/report.h"
#include "engine/synthesis_cache.h"
#include "server/planner_server.h"

namespace p2bench {

namespace {

// Layer names, as the spans and the README call them.
constexpr const char* kPipeline = "engine.pipeline";
constexpr const char* kPlacement = "core.placement";
constexpr const char* kHierarchy = "core.synthesis_hierarchy";
constexpr const char* kSynthesizer = "core.synthesizer";
constexpr const char* kLowering = "core.lowering";
constexpr const char* kCost = "cost";
constexpr const char* kRuntime = "runtime";
constexpr const char* kReport = "engine.report";
constexpr const char* kWireEncode = "server.encode";
constexpr const char* kWireDecode = "server.decode";

/// In-memory spans of one thread: name, start, end, parent, request id.
class Tracer {
 public:
  struct Span {
    const char* layer = nullptr;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::int64_t request = -1;
  };

  /// A disabled tracer records only root spans: the same replay with and
  /// without the inner spans gives the tracing overhead.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer) : tracer_(tracer) {
      if (!tracer_.enabled_ && !tracer_.open_.empty()) return;
      id_ = static_cast<int>(tracer_.spans_.size());
      Span span;
      span.layer = layer;
      span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
      span.request = tracer_.request_;
      tracer_.open_.push_back(id_);
      span.start_s = tracer_.Now();
      tracer_.spans_.push_back(span);
    }
    ~Scope() {
      if (id_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(id_)].end_s = tracer_.Now();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_ = -1;
  };

  void set_request(std::int64_t request) { request_ = request; }

  /// Self seconds per layer.
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

  /// Summed duration of the root spans.
  double RootSeconds() const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) total += s.end_s - s.start_s;
    }
    return total;
  }

  /// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%d,\"request\":%lld}}",
                    i == 0 ? "" : ",\n", s.layer, s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6, i, s.parent,
                    static_cast<long long>(s.request));
      out << line;
    }
    out << "\n]}\n";
  }

 private:
  double Now() const { return SecondsSince(origin_); }

  const bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t request_ = -1;
};

/// A lowered step's identity: op, in/out fractions and device groups.
std::string StepKey(const p2::core::LoweredStep& step) {
  std::string key;
  key.push_back(static_cast<char>(step.op));
  char bits[2 * sizeof(double)];
  std::memcpy(bits, &step.in_fraction, sizeof(double));
  std::memcpy(bits + sizeof(double), &step.out_fraction, sizeof(double));
  key.append(bits, sizeof(bits));
  for (const auto& group : step.groups) {
    key.push_back('|');
    for (const std::int64_t device : group) {
      key.append(reinterpret_cast<const char*>(&device), sizeof(device));
    }
  }
  return key;
}

/// Work counts of the replay, by layer.
struct Counts {
  std::int64_t placements = 0;
  std::unordered_set<std::string> signatures;
  std::int64_t synth_runs = 0;
  std::int64_t synth_states = 0;
  std::int64_t synth_programs = 0;
  std::int64_t lower_programs = 0;
  std::int64_t lower_steps = 0;
  std::unordered_set<std::string> lower_distinct;
  std::int64_t predict_steps = 0;
  std::int64_t measure_programs = 0;
  std::int64_t measure_steps = 0;
  std::int64_t measure_flows = 0;
  std::unordered_set<std::string> measure_distinct;
  std::int64_t report_bytes = 0;
  std::int64_t response_bytes = 0;
  /// Hierarchies of the synthesized signatures with at most
  /// kMaxReferenceDepth non-trivial levels.
  std::vector<p2::core::SynthesisHierarchy> shallow;
};

/// Requests the traced run of wire-small sends over the wire.
constexpr int kTracedWireRequests = 2000;

/// Pairs of traced and untraced replays behind trace.overhead_pct.
constexpr int kOverheadPairs = 3;

/// Deepest signature the reference DFS re-synthesizes in the traced run.
constexpr int kMaxReferenceDepth = 3;

int Depth(const p2::core::SynthesisHierarchy& sh) {
  return static_cast<int>(std::count_if(sh.levels().begin(), sh.levels().end(),
                                        [](std::int64_t c) { return c > 1; }));
}

/// The replay's own synthesis memo (cold at the start of the run), keyed
/// like the service's cache, so each distinct signature is synthesized
/// once per run as a cold service would.
struct MemoEntry {
  std::string key;  ///< SynthesisCache::Key, for the cache-file image
  p2::core::SynthesisResult result;
};
using Memo = std::unordered_map<std::string, MemoEntry>;

/// What one placement's replay produced, compared with the answer after the
/// request's spans closed (so bookkeeping stays out of the layer times).
struct PlacementReplay {
  std::vector<p2::core::LoweredProgram> lowered;
  std::vector<double> predicted;
  std::vector<std::pair<std::size_t, double>> measured;  ///< index, seconds
  std::vector<std::vector<p2::runtime::StepTrace>> traces;
};

/// Replays one request against its reference answer. Returns false with a
/// reason when the replay disagrees with the answer.
bool ReplayRequest(Tracer& tracer, const p2::engine::Engine& engine,
                   const Request& request,
                   const p2::engine::ExperimentResult& answer, Memo& memo,
                   Counts& counts, std::string* error) {
  const auto& options = engine.options();
  std::vector<PlacementReplay> replays;
  std::string text;
  std::string request_frame;
  std::string response_frame;
  p2::server::PlanWireRequest decoded_request;
  p2::server::PlanWireResponse decoded_response;
  bool decoded = true;
  std::vector<p2::core::SynthesisHierarchy> hierarchies;
  std::vector<std::size_t> synthesized;  ///< placements that ran synthesis
  tracer.set_request(request.id);
  {
    Tracer::Scope request_span(tracer, kPipeline);
    std::vector<p2::core::ParallelismMatrix> placements;
    {
      Tracer::Scope span(tracer, kPlacement);
      placements = engine.SynthesizePlacements(request.config.axes);
    }
    if (placements.size() != answer.placements.size()) {
      *error = "placement count differs from the answer";
      return false;
    }
    {
      Tracer::Scope span(tracer, kHierarchy);
      for (const auto& matrix : placements) {
        hierarchies.push_back(p2::core::SynthesisHierarchy::Build(
            matrix, request.config.reduction_axes, options.hierarchy_kind,
            options.collapse_hierarchy));
      }
    }
    const p2::core::Program default_ar = p2::engine::DefaultAllReduceProgram();
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const auto& sh = hierarchies[i];
      const std::string base =
          p2::engine::SynthesisCache::BaseKey(sh, options.synthesis);
      counts.signatures.insert(base);
      auto found = memo.find(base);
      if (found == memo.end()) {
        MemoEntry entry;
        entry.key = p2::engine::SynthesisCache::Key(sh, options.synthesis);
        {
          Tracer::Scope span(tracer, kSynthesizer);
          entry.result = p2::core::SynthesizePrograms(sh, options.synthesis);
        }
        synthesized.push_back(i);
        ++counts.synth_runs;
        counts.synth_states += entry.result.stats.states_visited;
        counts.synth_programs +=
            static_cast<std::int64_t>(entry.result.programs.size());
        found = memo.emplace(base, std::move(entry)).first;
      }
      const auto& programs = found->second.result.programs;

      // The program list the pipeline evaluates: the default AllReduce
      // first, then every synthesized program except the default's twin.
      PlacementReplay replay;
      std::vector<const p2::core::Program*> sources = {&default_ar};
      {
        Tracer::Scope span(tracer, kLowering);
        replay.lowered.push_back(p2::core::LowerProgram(sh, default_ar));
        for (const auto& program : programs) {
          auto lowered = p2::core::LowerProgram(sh, program);
          const auto& first = replay.lowered.front().steps[0];
          if (lowered.steps.size() == 1 &&
              lowered.steps[0].op == p2::core::Collective::kAllReduce &&
              lowered.steps[0].groups == first.groups) {
            continue;
          }
          replay.lowered.push_back(std::move(lowered));
          sources.push_back(&program);
        }
      }
      // The pipeline renders every program's DSL text; that work belongs
      // to the pipeline layer itself.
      for (const auto* source : sources) {
        text = p2::core::ToString(*source, sh.level_names());
      }
      const auto& evaluated = answer.placements[i].programs;
      if (replay.lowered.size() != evaluated.size()) {
        *error = "program count differs from the answer";
        return false;
      }
      {
        Tracer::Scope span(tracer, kCost);
        for (const auto& lowered : replay.lowered) {
          replay.predicted.push_back(engine.cost_model().PredictProgram(
              lowered, engine.payload_bytes(), options.algo));
        }
      }
      {
        // Exactly the programs the answer marks measured.
        Tracer::Scope span(tracer, kRuntime);
        for (std::size_t k = 0; k < evaluated.size(); ++k) {
          if (!evaluated[k].measured) continue;
          replay.traces.emplace_back();
          replay.measured.emplace_back(
              k, engine.executor().MeasureProgram(
                     replay.lowered[k], engine.payload_bytes(), options.algo,
                     &replay.traces.back()));
        }
      }
      replays.push_back(std::move(replay));
    }
    {
      Tracer::Scope span(tracer, kReport);
      text = p2::engine::CanonicalResultText(answer);
    }
    {
      Tracer::Scope span(tracer, kWireEncode);
      p2::server::PlanWireResponse response;
      response.body = text;
      response.stats = answer.pipeline;
      request_frame = p2::server::EncodeFrame(
          {p2::server::FrameType::kPlanRequest,
           p2::server::EncodePlanRequest(ToWireRequest(request))});
      response_frame = p2::server::EncodeFrame(
          {p2::server::FrameType::kPlanResponse,
           p2::server::EncodePlanResponse(response)});
    }
    {
      Tracer::Scope span(tracer, kWireDecode);
      p2::server::Frame frame;
      std::size_t consumed = 0;
      std::string why;
      decoded = p2::server::DecodeFrame(request_frame, &frame, &consumed) ==
                    p2::server::FrameDecodeStatus::kOk &&
                p2::server::DecodePlanRequest(frame.payload, &decoded_request,
                                              &why) &&
                p2::server::DecodeFrame(response_frame, &frame, &consumed) ==
                    p2::server::FrameDecodeStatus::kOk &&
                p2::server::DecodePlanResponse(frame.payload,
                                               &decoded_response, &why);
    }
  }

  // Bookkeeping and comparisons, outside the spans.
  if (!decoded || decoded_response.body != text) {
    *error = "wire codec round trip lost the answer";
    return false;
  }
  counts.placements += static_cast<std::int64_t>(replays.size());
  for (const std::size_t i : synthesized) {
    if (Depth(hierarchies[i]) <= kMaxReferenceDepth) {
      counts.shallow.push_back(hierarchies[i]);
    }
  }
  counts.report_bytes += static_cast<std::int64_t>(text.size());
  counts.response_bytes += static_cast<std::int64_t>(response_frame.size());
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const auto& replay = replays[i];
    const auto& evaluated = answer.placements[i].programs;
    for (std::size_t k = 0; k < replay.lowered.size(); ++k) {
      if (replay.predicted[k] != evaluated[k].predicted_seconds) {
        *error = "replayed prediction differs from the answer";
        return false;
      }
      ++counts.lower_programs;
      for (const auto& step : replay.lowered[k].steps) {
        ++counts.lower_steps;
        ++counts.predict_steps;
        counts.lower_distinct.insert(StepKey(step));
      }
    }
    for (std::size_t m = 0; m < replay.measured.size(); ++m) {
      const auto [k, seconds] = replay.measured[m];
      if (seconds != evaluated[k].measured_seconds) {
        *error = "replayed measurement differs from the answer";
        return false;
      }
      ++counts.measure_programs;
      for (const auto& step : replay.lowered[k].steps) {
        ++counts.measure_steps;
        counts.measure_distinct.insert(StepKey(step));
      }
      for (const auto& trace : replay.traces[m]) {
        counts.measure_flows += trace.flows_completed;
      }
    }
  }
  return true;
}

/// Times CacheStore loading `path` into a fresh SynthesisCache (median of
/// kSetupRepeats loads).
double TimeCacheLoad(const std::string& path, std::int64_t* entries) {
  std::vector<double> loads;
  for (int i = 0; i < kSetupRepeats; ++i) {
    p2::engine::SynthesisCache cache;
    p2::engine::CacheStore store(path);
    const auto start = Clock::now();
    const auto status = store.LoadInto(&cache);
    loads.push_back(SecondsSince(start));
    if (status != p2::engine::CacheLoadStatus::kOk) {
      throw std::runtime_error("cannot load the cache file " + path + ": " +
                               store.last_load_message());
    }
    *entries = store.entries_loaded();
  }
  return Median(loads);
}

double Percent(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

}  // namespace

Outcome RunTraced(const Workload& workload, const RunOptions& options) {
  Rng rng(options.seed);
  const int n = static_cast<int>(workload.requests.size());
  const auto order = SeededPermutation(n, rng);
  std::string cache_file;
  if (workload.kind == Kind::kWireSmall) {
    cache_file = CacheFilePath(options, workload);
    std::filesystem::remove(cache_file);
  }
  // The untraced reference: a cold single-threaded service over the same
  // requests in the same order. Its stage timers are the pipeline.* metrics
  // and its answers what the replay must reproduce.
  std::vector<p2::engine::ExperimentResult> answers;
  const Reference reference = PlanReference(workload, order, cache_file, &answers);

  Outcome outcome;
  outcome.attempted = reference.checks_run;
  outcome.failed = reference.checks_failed;

  // topology: engine construction for every tenant, median of repeats.
  std::vector<double> builds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    for (const auto& cluster : workload.clusters) {
      const p2::engine::Engine engine(cluster, BenchEngineOptions());
    }
    builds.push_back(SecondsSince(start));
  }

  // The service run: the workload's own service shape, one pass (after the
  // warm-up pass on grid-measure), or seeded requests over the wire. The
  // in-process workloads then send as many seeded requests as they have
  // distinct ones over a loopback server on the same service, for what the
  // wire adds there.
  Samples service_samples;
  Samples probe_samples;
  p2::engine::PlannerServiceStats service_stats;
  if (workload.kind == Kind::kWireSmall) {
    auto service_options = ServiceOptions();
    service_options.cache_file = cache_file;
    service_options.cache_readonly = true;
    auto service = MakeService(workload, service_options);
    p2::server::PlannerServer server(*service);
    WireLoad load;
    load.seed = options.seed;
    load.warm_up = true;
    load.record_outside = true;
    load.requests_per_client = kTracedWireRequests / load.clients;
    double elapsed = 0.0;
    double cpu = 0.0;
    service_samples =
        RunWire(server.port(), workload, reference, load, &elapsed, &cpu);
    server.Shutdown();
    service_stats = service->stats();
  } else {
    auto service = MakeService(workload, ServiceOptions());
    if (workload.kind == Kind::kGridMeasure) {
      Dispenser warm_up(n, &rng, 1);
      const Samples warm =
          RunInProcess(*service, workload, reference, warm_up, kClients);
      outcome.failed += warm.failed;
      outcome.attempted += warm.latency.count();
    }
    Dispenser pass(n, &rng, 1);
    service_samples =
        RunInProcess(*service, workload, reference, pass, kClients, true);
    service_stats = service->stats();
    p2::server::PlannerServer server(*service);
    WireLoad load;
    load.clients = 1;
    load.seed = options.seed;
    load.record_outside = true;
    load.requests_per_client = n;
    double elapsed = 0.0;
    double cpu = 0.0;
    probe_samples =
        RunWire(server.port(), workload, reference, load, &elapsed, &cpu);
    server.Shutdown();
  }
  for (const Samples* s : {&service_samples, &probe_samples}) {
    outcome.attempted += s->latency.count();
    outcome.failed += s->failed;
  }
  const Samples& wire_samples = workload.kind == Kind::kWireSmall
                                    ? service_samples
                                    : probe_samples;

  // The replay: an untimed pass that warms the heap and the engines, then
  // pairs of a traced pass and one with only the request spans, in
  // alternating order. The first traced pass gives the layer figures; the
  // median of the pairs' differences is the tracing overhead.
  std::map<std::string, std::unique_ptr<p2::engine::Engine>> engines;
  for (const auto& cluster : workload.clusters) {
    engines[cluster.Fingerprint()] =
        std::make_unique<p2::engine::Engine>(cluster, BenchEngineOptions());
  }
  Memo memo;
  Counts counts;
  const auto replay = [&](Tracer& tracer, bool keep) {
    Memo pass_memo;
    Counts pass_counts;
    for (const int id : order) {
      const Request& request = workload.requests[static_cast<std::size_t>(id)];
      std::string error;
      ++outcome.attempted;
      if (!ReplayRequest(tracer, *engines.at(request.cluster.Fingerprint()),
                         request, answers[static_cast<std::size_t>(id)],
                         pass_memo, pass_counts, &error)) {
        ++outcome.failed;
        std::fprintf(stderr, "replay of %s disagrees: %s\n",
                     request.config.ToString().c_str(), error.c_str());
      }
    }
    if (keep) {
      memo = std::move(pass_memo);
      counts = std::move(pass_counts);
    }
  };
  Tracer warm_up(false);
  replay(warm_up, false);
  Tracer tracer(true);
  std::vector<double> overheads_pct;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    Tracer later(true);
    Tracer traced_only_requests(false);
    Tracer& traced = pair == 0 ? tracer : later;
    if (pair % 2 == 0) {
      replay(traced, pair == 0);
      replay(traced_only_requests, false);
    } else {
      replay(traced_only_requests, false);
      replay(traced, false);
    }
    const double base = traced_only_requests.RootSeconds();
    overheads_pct.push_back(Percent(traced.RootSeconds() - base, base));
  }
  const std::string stem = (std::filesystem::path(options.out_dir) /
                            (workload.name + "-seed" +
                             std::to_string(options.seed)))
                               .string();
  tracer.Write(stem + ".trace.json");

  // cache_store: the wire-small server's own file; elsewhere the replay's
  // memo written as the file a warm start of this workload would load.
  std::int64_t cache_entries = 0;
  if (cache_file.empty()) {
    cache_file = stem + ".replay.p2sc";
    std::vector<p2::engine::CacheFileEntry> entries;
    for (const auto& [base, entry] : memo) {
      entries.push_back({entry.key, entry.result, 0});
    }
    std::ofstream(cache_file, std::ios::binary)
        << p2::engine::CacheStore::EncodeFile(entries);
  }
  const double cache_load_s = TimeCacheLoad(cache_file, &cache_entries);

  // The transposition search must list exactly what the reference DFS
  // lists; the DFS is exponential in depth, so only shallow signatures.
  for (const auto& sh : counts.shallow) {
    ++outcome.attempted;
    const auto& entry = memo.at(p2::engine::SynthesisCache::BaseKey(
        sh, BenchEngineOptions().synthesis));
    if (p2::core::SynthesizeProgramsReference(sh, BenchEngineOptions().synthesis)
            .programs != entry.result.programs) {
      ++outcome.failed;
      std::fprintf(stderr, "synthesized programs differ from the reference "
                           "DFS on %s\n", sh.Signature().c_str());
    }
  }

  const auto self = tracer.SelfTimes();
  const auto self_ms = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second * 1e3;
  };
  const double replay_ms = tracer.RootSeconds() * 1e3;

  const LatencyBins& queue = service_samples.outside_pipeline;
  const auto& cache = service_stats.cache;
  const auto ratio = [](std::int64_t part, std::int64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  const auto count = [](auto value) { return static_cast<double>(value); };

  outcome.metrics = {
      {"placement.enumerate_ms", self_ms(kPlacement), "ms"},
      {"placement.count", count(counts.placements), "count"},
      {"hierarchy.build_ms", self_ms(kHierarchy), "ms"},
      {"hierarchy.unique_signatures", count(counts.signatures.size()), "count"},
      {"synth.busy_ms", self_ms(kSynthesizer), "ms"},
      {"synth.runs", count(counts.synth_runs), "count"},
      {"synth.states_visited", count(counts.synth_states), "count"},
      {"synth.programs", count(counts.synth_programs), "count"},
      {"synth.reference_checked", count(counts.shallow.size()), "count"},
      {"cache.hits", count(cache.hits), "count"},
      {"cache.misses", count(cache.misses), "count"},
      {"cache.hit_ratio", ratio(cache.hits, cache.hits + cache.misses), "ratio"},
      {"cache.deferred_lookups", count(cache.deferred_lookups), "count"},
      {"cache.waiter_parks", count(cache.waiter_parks), "count"},
      {"lower.busy_ms", self_ms(kLowering), "ms"},
      {"lower.programs", count(counts.lower_programs), "count"},
      {"lower.steps", count(counts.lower_steps), "count"},
      {"lower.distinct_step_ratio",
       ratio(static_cast<std::int64_t>(counts.lower_distinct.size()),
             counts.lower_steps),
       "ratio"},
      {"predict.busy_ms", self_ms(kCost), "ms"},
      {"predict.steps", count(counts.predict_steps), "count"},
      {"measure.busy_ms", self_ms(kRuntime), "ms"},
      {"measure.programs", count(counts.measure_programs), "count"},
      {"measure.steps", count(counts.measure_steps), "count"},
      {"measure.flows_completed", count(counts.measure_flows), "count"},
      {"measure.distinct_step_ratio",
       ratio(static_cast<std::int64_t>(counts.measure_distinct.size()),
             counts.measure_steps),
       "ratio"},
      {"pipeline.total_ms", reference.pipeline_total_s * 1e3, "ms"},
      {"pipeline.synthesis_ms", reference.pipeline_synthesis_s * 1e3, "ms"},
      {"pipeline.evaluation_ms", reference.pipeline_evaluation_s * 1e3, "ms"},
      {"pipeline.other_ms",
       (reference.pipeline_total_s - reference.pipeline_synthesis_s -
        reference.pipeline_evaluation_s) *
           1e3,
       "ms"},
      {"service.queue_p50_ms", queue.Percentile(50.0) * 1e3, "ms"},
      {"service.queue_tail_ms", queue.Percentile(kTailPercentile) * 1e3, "ms"},
      {"service.peak_in_flight", count(service_stats.peak_in_flight), "count"},
      {"service.rejected", count(service_stats.rejected), "count"},
      {"report.render_ms", self_ms(kReport), "ms"},
      {"report.bytes", count(counts.report_bytes), "bytes"},
      {"wire.encode_ms", self_ms(kWireEncode), "ms"},
      {"wire.decode_ms", self_ms(kWireDecode), "ms"},
      {"wire.response_bytes", count(counts.response_bytes), "bytes"},
      {"wire.overhead_ms", wire_samples.outside_pipeline.Percentile(50.0) * 1e3,
       "ms"},
      {"cache_store.load_ms", cache_load_s * 1e3, "ms"},
      {"cache_store.entries", count(cache_entries), "count"},
      {"topology.engine_build_ms", Median(builds) * 1e3, "ms"},
      {"trace.replay_ms", replay_ms, "ms"},
      {"trace.overhead_pct", Median(overheads_pct), "%"},
      {"answer.outperform_share", reference.outperform_share, "ratio"},
      {"share.runtime_pct", Percent(self_ms(kRuntime), replay_ms), "%"},
      {"share.lowering_pct", Percent(self_ms(kLowering), replay_ms), "%"},
      {"share.cost_pct", Percent(self_ms(kCost), replay_ms), "%"},
      {"share.synthesizer_pct", Percent(self_ms(kSynthesizer), replay_ms), "%"},
      {"share.outside_pipeline_pct",
       Percent(queue.sum_s(), service_samples.latency.sum_s()), "%"},
  };
  char line[256];
  for (const auto& [layer, seconds] : self) {
    std::snprintf(line, sizeof(line), "self %-26s %10.3f ms  %5.1f%%",
                  layer.c_str(), seconds * 1e3,
                  Percent(seconds * 1e3, replay_ms));
    outcome.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "service.queue_tail_ms is p%g with %lld of %lld samples beyond",
                kTailPercentile,
                static_cast<long long>(SamplesBeyond(queue.count(), kTailPercentile)),
                static_cast<long long>(queue.count()));
  outcome.notes.push_back(line);
  outcome.notes.push_back("trace written to " + stem + ".trace.json");
  return outcome;
}

}  // namespace p2bench
