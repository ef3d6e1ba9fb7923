#include "core/lowering.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/collective_semantics.h"
#include "core/device_state.h"
#include "core/grouping.h"

namespace p2::core {

void LoweredStep::ComputeSortedOrders() {
  sorted_orders.resize(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    std::vector<int>& order = sorted_orders[i];
    order.resize(groups[i].size());
    for (std::size_t j = 0; j < order.size(); ++j) {
      order[j] = static_cast<int>(groups[i][j]);
    }
    std::sort(order.begin(), order.end());
  }
}

SynthesisStep LowerInstruction(const SynthesisHierarchy& sh,
                               const Instruction& instr,
                               StateContext& context, ApplyUndo& undo) {
  SynthesisStep step;
  step.op = instr.op;
  step.groups = DeriveGroups(sh.levels(), instr);
  // Singleton groups perform no communication; the synthesizer's alphabet
  // filters them identically before validating instructions.
  std::erase_if(step.groups, [](const auto& g) { return g.size() < 2; });
  if (step.groups.empty()) {
    throw std::invalid_argument(
        "LowerProgram: instruction derives no non-trivial groups: " +
        ToString(instr));
  }
  const double k = static_cast<double>(sh.num_synth_devices());

  // Fractions: data held by the step's participants before the op. All
  // reduce-family participants hold equally many rows (the semantics
  // requires it); for Broadcast the root's volume is what moves.
  double in_rows = 0;
  for (const auto& g : step.groups) {
    in_rows = std::max(
        in_rows,
        static_cast<double>(
            context[static_cast<std::size_t>(g[0])].NumNonEmptyRows()));
  }
  step.in_fraction = in_rows / k;

  const ApplyResult r =
      ApplyCollectiveToGroups(instr.op, context, step.groups, undo);
  if (!r.ok()) {
    std::ostringstream os;
    os << "LowerProgram: invalid instruction " << ToString(instr) << ": "
       << ToString(r.error);
    throw std::invalid_argument(os.str());
  }

  double out_rows = 0;
  for (const auto& g : step.groups) {
    for (std::int64_t d : g) {
      const DeviceState& state = context[static_cast<std::size_t>(d)];
      out_rows =
          std::max(out_rows, static_cast<double>(state.NumNonEmptyRows()));
    }
  }
  step.out_fraction = out_rows / k;
  return step;
}

void ReplicateStep(const SynthesisHierarchy& sh, const SynthesisStep& step,
                   LoweredStep& out) {
  out.op = step.op;
  out.in_fraction = step.in_fraction;
  out.out_fraction = step.out_fraction;
  out.groups.resize(static_cast<std::size_t>(sh.num_replicas()) *
                    step.groups.size());
  std::size_t at = 0;
  for (std::int64_t rep = 0; rep < sh.num_replicas(); ++rep) {
    // The groups were derived from this hierarchy's levels, whose product
    // is the replica's size: every synthesis id is in range.
    const std::span<const std::int64_t> devices = sh.ReplicaDevices(rep);
    for (const auto& g : step.groups) {
      std::vector<std::int64_t>& global = out.groups[at++];
      global.resize(g.size());
      for (std::size_t j = 0; j < g.size(); ++j) {
        global[j] = devices[static_cast<std::size_t>(g[j])];
      }
    }
  }
  out.ComputeSortedOrders();
}

LoweredProgram LowerProgram(const SynthesisHierarchy& sh,
                            const Program& program) {
  LoweredProgram out;
  out.source = program;
  out.num_devices = sh.num_global_devices();
  StateContext context =
      MakeInitialContext(static_cast<int>(sh.num_synth_devices()));
  // Applications are permanent here, so the undo log is only a way to skip
  // the whole-context backup the legacy overload would take per step.
  ApplyUndo undo;
  out.steps.reserve(program.size());
  for (const Instruction& instr : program) {
    const SynthesisStep step = LowerInstruction(sh, instr, context, undo);
    undo.Clear();
    ReplicateStep(sh, step, out.steps.emplace_back());
  }
  return out;
}

bool CheckLoweredOnFullSystem(const SynthesisHierarchy& sh,
                              const LoweredProgram& lowered,
                              std::string* error) {
  const int k = static_cast<int>(sh.num_global_devices());
  StateContext ctx = MakeInitialContext(k);
  ApplyUndo undo;
  for (std::size_t i = 0; i < lowered.steps.size(); ++i) {
    const LoweredStep& step = lowered.steps[i];
    const ApplyResult r =
        ApplyCollectiveToGroups(step.op, ctx, step.groups, undo);
    undo.Clear();
    if (!r.ok()) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "step " << i << " (" << ToString(step.op)
           << ") invalid on full system: " << ToString(r.error);
        *error = os.str();
      }
      return false;
    }
  }
  const auto goal_groups = sh.layout().ReductionGroups(sh.reduction_axes());
  const StateContext goal = MakeGoalContext(k, goal_groups);
  if (ctx != goal) {
    if (error != nullptr) *error = "final context differs from goal";
    return false;
  }
  return true;
}

}  // namespace p2::core
