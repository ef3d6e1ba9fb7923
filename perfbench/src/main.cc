// p2_perfbench: the repository benchmark (see README.md in the parent
// directory).
//
//   p2_perfbench --workload grid-measure|guided-racked|wire-small
//                --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics; --trace 1 is the traced run and reports the per-layer metrics.
// A summary goes to stderr, a copy of the result with the run's notes to
// DIR/<workload>-seed<N>-trace<T>.json, and the last line of stdout is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit 0 only when every answer check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: p2_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string ResultJson(const p2bench::Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& m = outcome.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = ".";
  p2bench::RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1" ? 1 : 0;
    } else if (key == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload_name.empty() || !have_seed || !have_seconds ||
      trace < 0) {
    return Usage();
  }
  options.out_dir = out_dir;

  p2bench::Outcome outcome;
  try {
    std::filesystem::create_directories(out_dir);
    const auto workload = p2bench::MakeWorkload(workload_name);
    outcome = trace == 1 ? p2bench::RunTraced(workload, options)
                         : p2bench::RunMeasured(workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2_perfbench: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr, "%s seed %llu trace %d: %lld attempted, %lld failed\n",
               workload_name.c_str(),
               static_cast<unsigned long long>(options.seed), trace,
               static_cast<long long>(outcome.attempted),
               static_cast<long long>(outcome.failed));
  for (const auto& m : outcome.metrics) {
    std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& note : outcome.notes) {
    std::fprintf(stderr, "  # %s\n", note.c_str());
  }

  const std::string result = ResultJson(outcome);
  std::ofstream record(std::filesystem::path(out_dir) /
                       (workload_name + "-seed" + std::to_string(options.seed) +
                        "-trace" + std::to_string(trace) + ".json"));
  record << "{\"workload\": \"" << workload_name
         << "\", \"seed\": " << options.seed
         << ", \"seconds\": " << options.seconds << ", \"notes\": [";
  for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
    record << (i == 0 ? "\"" : ", \"") << Escape(outcome.notes[i]) << "\"";
  }
  record << "], \"result\": " << result << "}\n";

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}
