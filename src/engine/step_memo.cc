#include "engine/step_memo.h"

#include <bit>

namespace p2::engine {

namespace {

constexpr std::size_t kShardCapacity =
    StepCostMemo::kCapacity / StepCostMemo::kShards;

// splitmix64's finalizer: every input bit reaches every output bit, so the
// shard (high bits) and the map's bucket (low bits) stay independent.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

StepCostMemo::StepCostMemo(const cost::CostModel& model,
                           const runtime::Executor& executor,
                           double payload_bytes, core::NcclAlgo algo)
    : model_(model),
      executor_(executor),
      payload_bytes_(payload_bytes),
      algo_(algo) {}

double StepCostMemo::PredictProgram(const core::LoweredProgram& program) {
  return ProgramCost(program, kPredicted);
}

double StepCostMemo::MeasureProgram(const core::LoweredProgram& program) {
  return ProgramCost(program, kMeasured);
}

std::size_t StepCostMemo::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.costs.size();
  }
  return n;
}

double StepCostMemo::ProgramCost(const core::LoweredProgram& program,
                                 Kind kind) {
  Key key;  // one encoding buffer for the whole program
  double total = 0.0;
  for (const auto& step : program.steps) {
    const StepCosts costs =
        Costs(step, kind == kPredicted, kind == kMeasured, key);
    total += kind == kPredicted ? costs.predicted : costs.measured;
  }
  return total;
}

StepCostMemo::StepCosts StepCostMemo::Costs(const core::LoweredStep& step,
                                            bool predict, bool measure,
                                            Key& key) {
  std::size_t words = 5 + step.groups.size();
  for (const auto& group : step.groups) words += group.size();
  key.resize(words);
  key[1] = static_cast<std::uint64_t>(step.op);
  key[2] = std::bit_cast<std::uint64_t>(step.in_fraction);
  key[3] = std::bit_cast<std::uint64_t>(step.out_fraction);
  key[4] = step.groups.size();
  std::size_t at = 5;
  for (const auto& group : step.groups) {
    key[at++] = group.size();
    for (const std::int64_t device : group) {
      key[at++] = static_cast<std::uint64_t>(device);
    }
  }
  // Four independent multiply-xor lanes keep the per-word dependency chain
  // short; each lane is a bijection of each word, so keys that differ in one
  // word always hash apart.
  std::array<std::uint64_t, 4> lanes = {words, 0, 0, 0};
  for (std::size_t i = 1; i < words; ++i) {
    std::uint64_t& lane = lanes[i & 3];
    lane = (lane ^ key[i]) * 0x9e3779b97f4a7c15ULL;
  }
  const std::uint64_t hash =
      Mix(lanes[0] ^ Mix(lanes[1] ^ Mix(lanes[2] ^ Mix(lanes[3]))));
  key[0] = hash;

  const std::array<bool, 2> wanted = {predict, measure};
  Entry found;
  Shard& shard = shards_[(hash >> 32) % kShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.costs.find(key);
    if (it != shard.costs.end()) found = it->second;
  }
  // Computed outside the lock: a racing worker computes the same doubles,
  // and whichever inserts first wins.
  Entry computed;
  for (const Kind kind : {kPredicted, kMeasured}) {
    if (!wanted[kind] || found.known[kind]) continue;
    computed.seconds[kind] =
        kind == kPredicted
            ? model_.PredictStep(step, payload_bytes_, algo_)
            : executor_.MeasureStep(step, payload_bytes_, algo_);
    computed.known[kind] = true;
    computed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (computed.known[kPredicted] || computed.known[kMeasured]) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.costs.find(key);
    if (it == shard.costs.end()) {
      if (shard.costs.size() >= kShardCapacity) shard.costs.clear();
      it = shard.costs.emplace(key, Entry{}).first;
    }
    for (const Kind kind : {kPredicted, kMeasured}) {
      if (!computed.known[kind]) continue;
      if (!it->second.known[kind]) {
        it->second.seconds[kind] = computed.seconds[kind];
        it->second.known[kind] = true;
      }
      found.seconds[kind] = it->second.seconds[kind];
    }
  }
  StepCosts out;
  if (predict) out.predicted = found.seconds[kPredicted];
  if (measure) out.measured = found.seconds[kMeasured];
  return out;
}

}  // namespace p2::engine
