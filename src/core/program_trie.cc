#include "core/program_trie.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/collective_semantics.h"
#include "core/device_state.h"

namespace p2::core {

namespace {

// A node's child along one instruction.
struct ChildKey {
  std::int32_t parent;
  Instruction instr;
  friend bool operator==(const ChildKey&, const ChildKey&) = default;
};

std::uint64_t MixInto(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 0x9e3779b97f4a7c15ULL;
}

struct ChildKeyHash {
  std::size_t operator()(const ChildKey& key) const {
    std::uint64_t h = MixInto(0, static_cast<std::uint64_t>(key.parent));
    h = MixInto(h, static_cast<std::uint64_t>(key.instr.slice_level));
    h = MixInto(h, static_cast<std::uint64_t>(key.instr.form.kind));
    h = MixInto(h, static_cast<std::uint64_t>(key.instr.form.ancestor_level));
    h = MixInto(h, static_cast<std::uint64_t>(key.instr.op));
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

std::uint64_t StepHash(const SynthesisStep& step) {
  std::uint64_t h = MixInto(0, static_cast<std::uint64_t>(step.op));
  h = MixInto(h, std::bit_cast<std::uint64_t>(step.in_fraction));
  h = MixInto(h, std::bit_cast<std::uint64_t>(step.out_fraction));
  for (const auto& group : step.groups) {
    h = MixInto(h, group.size());
    for (const std::int64_t device : group) {
      h = MixInto(h, static_cast<std::uint64_t>(device));
    }
  }
  return h;
}

// Equal steps replicate to equal LoweredSteps on every placement, so they
// cost the same to the bit.
bool SameStep(const SynthesisStep& a, const SynthesisStep& b) {
  return a.op == b.op &&
         std::bit_cast<std::uint64_t>(a.in_fraction) ==
             std::bit_cast<std::uint64_t>(b.in_fraction) &&
         std::bit_cast<std::uint64_t>(a.out_fraction) ==
             std::bit_cast<std::uint64_t>(b.out_fraction) &&
         a.groups == b.groups;
}

}  // namespace

ProgramTrie::ProgramTrie(
    const SynthesisHierarchy& sh,
    std::initializer_list<std::span<const Program>> lists)
    : nodes_(1) {
  // Insert every program, creating a node per new prefix. Children are
  // linked newest first; the walk below does not depend on their order.
  std::vector<Instruction> instr_of(1);
  std::vector<std::int32_t> first_child(1, -1);
  std::vector<std::int32_t> next_sibling(1, -1);
  std::unordered_map<ChildKey, std::int32_t, ChildKeyHash> child_of;
  std::size_t max_length = 0;
  for (const std::span<const Program> list : lists) {
    for (const Program& program : list) {
      std::int32_t node = 0;
      for (const Instruction& instr : program) {
        const auto [it, inserted] = child_of.try_emplace(
            ChildKey{node, instr}, static_cast<std::int32_t>(nodes_.size()));
        if (inserted) {
          nodes_.push_back(Node{node, -1});
          instr_of.push_back(instr);
          first_child.push_back(-1);
          next_sibling.push_back(first_child[static_cast<std::size_t>(node)]);
          first_child[static_cast<std::size_t>(node)] = it->second;
        }
        node = it->second;
      }
      terminals_.push_back(node);
      max_length = std::max(max_length, program.size());
    }
  }
  child_of = {};

  // Lower every node once, depth first from the initial state: each child
  // is applied on the shared context and reverted by its own depth's undo
  // log. A child whose instruction fails records the error and its subtree
  // stays unlowered.
  StateContext context =
      MakeInitialContext(static_cast<int>(sh.num_synth_devices()));
  std::vector<ApplyUndo> undo(max_length);
  std::unordered_multimap<std::uint64_t, std::int32_t> step_of_hash;
  std::unordered_map<std::int32_t, std::string> error_of;
  const auto visit = [&](const auto& self, std::int32_t node,
                         std::size_t depth) -> void {
    for (std::int32_t child = first_child[static_cast<std::size_t>(node)];
         child >= 0; child = next_sibling[static_cast<std::size_t>(child)]) {
      SynthesisStep step;
      try {
        step = LowerInstruction(sh, instr_of[static_cast<std::size_t>(child)],
                                context, undo[depth]);
      } catch (const std::invalid_argument& e) {
        error_of.emplace(child, e.what());
        continue;
      }
      const std::uint64_t hash = StepHash(step);
      std::int32_t id = -1;
      for (auto [it, end] = step_of_hash.equal_range(hash); it != end; ++it) {
        if (SameStep(steps_[static_cast<std::size_t>(it->second)], step)) {
          id = it->second;
          break;
        }
      }
      if (id < 0) {
        id = static_cast<std::int32_t>(steps_.size());
        steps_.push_back(std::move(step));
        step_of_hash.emplace(hash, id);
      }
      nodes_[static_cast<std::size_t>(child)].step = id;
      self(self, child, depth + 1);
      undo[depth].RevertInto(context);
    }
  };
  visit(visit, 0, 0);

  // Report the first invalid program in list order, as lowering the list
  // program by program would. A path holds at most one failed node: nothing
  // below a failure is lowered.
  if (error_of.empty()) return;
  for (const std::int32_t terminal : terminals_) {
    for (std::int32_t node = terminal; node > 0;
         node = nodes_[static_cast<std::size_t>(node)].parent) {
      const auto it = error_of.find(node);
      if (it != error_of.end()) throw std::invalid_argument(it->second);
    }
  }
}

}  // namespace p2::core
