// Lowering of synthesized reduction programs from the synthesis hierarchy to
// the full system (paper Section 3.4): every instruction becomes a set of
// concrete global-device groups (the synthesis grouping pattern applied once
// per assignment of the non-reduction axes' coordinates), annotated with the
// per-device data volume entering and leaving the step.
//
// Lowering splits in two. LowerInstruction does everything that depends only
// on the synthesis problem and the program prefix: it derives the
// instruction's synthesis-device groups, replays the instruction on the
// synthesis devices' states and reads off the in/out fractions.
// ReplicateStep then maps those groups onto one placement's global devices.
// LowerProgram chains the two per instruction; core/program_trie.h runs the
// first half once per distinct program prefix of a whole program list and
// shares it between every placement with the same synthesis hierarchy
// signature. LowerProgram stays the per-program oracle the trie is tested
// against.
#ifndef P2_CORE_LOWERING_H_
#define P2_CORE_LOWERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/collective.h"
#include "core/collective_semantics.h"
#include "core/device_state.h"
#include "core/reduction_dsl.h"
#include "core/synthesis_hierarchy.h"

namespace p2::core {

struct LoweredStep {
  Collective op = Collective::kAllReduce;
  /// Concrete global-device groups executing `op` concurrently.
  std::vector<std::vector<std::int64_t>> groups;
  /// groups[i] as ints in ascending order — the ring/chain member order the
  /// cost model charges. Precomputed here (LowerProgram fills it; see
  /// ComputeSortedOrders) so CostModel::PredictStep does not rebuild and
  /// sort the order per group per prediction; when absent (e.g. a
  /// hand-constructed step) the cost model falls back to a scratch build.
  std::vector<std::vector<int>> sorted_orders;
  /// Per-participant data entering/leaving the step, as a fraction of the
  /// per-device payload (rows held / k'). For Reduce/Broadcast the fraction
  /// of the root is used; for AllGather `out_fraction` is the gathered total.
  double in_fraction = 1.0;
  double out_fraction = 1.0;

  /// Rebuilds `sorted_orders` from `groups`, reusing its storage.
  void ComputeSortedOrders();
};

/// One instruction lowered onto the synthesis hierarchy: the same fields as
/// a LoweredStep, but its groups hold synthesis-device ids and are not yet
/// replicated over the non-reduction coordinates.
struct SynthesisStep {
  Collective op = Collective::kAllReduce;
  /// The instruction's non-trivial (two or more member) groups.
  std::vector<std::vector<std::int64_t>> groups;
  double in_fraction = 1.0;
  double out_fraction = 1.0;
};

/// Lowers `instr` at the synthesis-device state `context` and applies it
/// there, appending the pre-images of the devices it changed to `undo` (so
/// a caller can revert the instruction with undo.RevertInto). Throws
/// std::invalid_argument, leaving `context` unchanged, when the instruction
/// derives no non-trivial groups or is semantically invalid at `context`.
SynthesisStep LowerInstruction(const SynthesisHierarchy& sh,
                               const Instruction& instr,
                               StateContext& context, ApplyUndo& undo);

/// Writes into `out` the global step of `step` on `sh`: the synthesis groups
/// mapped onto every replica's devices (replica-major), with sorted orders.
/// Reuses `out`'s storage, so a caller replicating many steps through one
/// scratch LoweredStep allocates little.
void ReplicateStep(const SynthesisHierarchy& sh, const SynthesisStep& step,
                   LoweredStep& out);

struct LoweredProgram {
  Program source;                  ///< the DSL program this was lowered from
  std::vector<LoweredStep> steps;  ///< executed in order, barrier in between
  std::int64_t num_devices = 0;    ///< global device count of the system
};

/// Lowers `program` (which must be semantically valid on `sh`'s synthesis
/// hierarchy; throws std::invalid_argument otherwise).
LoweredProgram LowerProgram(const SynthesisHierarchy& sh,
                            const Program& program);

/// Replays a lowered program on the *full system's* state matrices and
/// verifies it implements the user-requested reduction: the initial context
/// must reach exactly the goal context of the placement's reduction groups.
/// This is the paper's notion of end-to-end semantic validity; the lowering
/// theorem (Thm 3.2 machinery) says it always holds for programs synthesized
/// on hierarchy (d) — a property the test-suite checks empirically.
bool CheckLoweredOnFullSystem(const SynthesisHierarchy& sh,
                              const LoweredProgram& lowered,
                              std::string* error = nullptr);

}  // namespace p2::core

#endif  // P2_CORE_LOWERING_H_
