// The per-engine step-cost memo: every prediction and measurement the
// pipeline makes goes through it, so each distinct lowered step is
// predicted and measured at most once per Engine (as long as it stays
// resident).
//
// A program's predicted and measured seconds are plain sums of per-step
// costs in program order (CostModel::PredictProgram,
// Executor::MeasureProgram). The memo returns each step's exact double, and
// its program totals sum the same way, from 0.0 in program order, so they
// are bit-identical to the uncached ones. Costs() returns a step's
// prediction and measurement from one lookup, for callers (the pipeline)
// that want both or sum programs themselves. The key is the lowered step
// itself: the op, the bit patterns of the in/out fractions, and the device
// groups in order (a group's first member is the Reduce/Broadcast root, and
// group order feeds the flow simulator's floating-point sums). Payload and
// algo are per-engine constants and stay out of the key. Lookups compare
// the full key, so a hash collision can never change an answer.
//
// The CostModel and the Executor themselves stay uncached: they are the
// independent oracle the tests and perfbench's answer checks re-derive
// results with.
#ifndef P2_ENGINE_STEP_MEMO_H_
#define P2_ENGINE_STEP_MEMO_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/collective.h"
#include "core/lowering.h"
#include "cost/cost_model.h"
#include "runtime/executor.h"

namespace p2::engine {

class StepCostMemo {
 public:
  /// Entries held at most. A shard whose share (kCapacity / kShards) is
  /// full is cleared before its next insert; answers are the same either
  /// way. The groups of one step are disjoint and each has at least two
  /// members, so on a D-device cluster a key holds at most 5 + 1.5D words
  /// and an entry, with its map node and bucket, costs at most about
  /// 150 + 12D bytes: the worst case is about 15 MB at 64 devices and
  /// 103 MB at 512. A pass over every config of the racked 2x2 A100 grid
  /// needs about 1.2k entries, one over the v100:8 grid about 550.
  static constexpr std::size_t kCapacity = 16384;
  static constexpr std::size_t kShards = 16;

  /// Costs are computed with `model` and `executor` at the engine's
  /// `payload_bytes` and `algo`; both must outlive the memo. Allocates
  /// nothing until the first lookup.
  StepCostMemo(const cost::CostModel& model, const runtime::Executor& executor,
               double payload_bytes, core::NcclAlgo algo);

  /// Bit-identical to model.PredictProgram(program, payload_bytes, algo).
  double PredictProgram(const core::LoweredProgram& program);
  /// Bit-identical to executor.MeasureProgram(program, payload_bytes, algo).
  double MeasureProgram(const core::LoweredProgram& program);

  /// A step's predicted and measured seconds; a cost not asked for is 0.
  struct StepCosts {
    double predicted = 0.0;
    double measured = 0.0;
  };
  /// The encoded step: the key's hash, then op, fraction bits and the
  /// groups (size, members...) in order. Callers pass one buffer per run of
  /// lookups so that encoding does not allocate per step.
  using Key = std::vector<std::uint64_t>;
  /// One memo lookup for `step` that returns whichever of its costs are
  /// asked for, computing (and counting in computed()) only those the memo
  /// lacks. Each cost is bit-identical to model.PredictStep /
  /// executor.MeasureStep at the engine's payload and algo.
  StepCosts Costs(const core::LoweredStep& step, bool predict, bool measure,
                  Key& key);

  /// Step costs computed so far (memo misses, predictions and measurements
  /// together). For tests: a repeated pass over the same programs adds 0.
  std::int64_t computed() const {
    return computed_.load(std::memory_order_relaxed);
  }
  /// Entries currently resident, never above kCapacity.
  std::size_t size() const;

 private:
  enum Kind : int { kPredicted = 0, kMeasured = 1 };

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return static_cast<std::size_t>(key[0]);
    }
  };
  struct Entry {
    std::array<double, 2> seconds{};
    std::array<bool, 2> known{};
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> costs;  // guarded by mu
  };

  double ProgramCost(const core::LoweredProgram& program, Kind kind);

  const cost::CostModel& model_;
  const runtime::Executor& executor_;
  const double payload_bytes_;
  const core::NcclAlgo algo_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::int64_t> computed_{0};
};

}  // namespace p2::engine

#endif  // P2_ENGINE_STEP_MEMO_H_
