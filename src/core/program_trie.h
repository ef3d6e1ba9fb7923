// Prefix-shared lowering of a whole program list (paper Section 3.4).
//
// Lowering a program replicates its synthesis-hierarchy steps over the
// non-reduction coordinates, so everything but that final device mapping —
// the derived groups, the state replay and the in/out fractions — depends
// only on the synthesis problem and the program prefix. A ProgramTrie holds
// that part once per distinct prefix of a program list: one node per
// prefix, each naming its parent and its step (core::LowerInstruction's
// output). It is built by one depth-first walk that reuses a single
// synthesis-device context and reverts each child with ApplyUndo, as the
// synthesizer does.
//
// Nodes whose instructions lower to equal steps (same op, groups and
// fraction bits) share one entry of steps(), so a placement replicates and
// costs each distinct step once and then costs every node as
// cost[parent] + cost[step]. Summed from 0.0 at the root, that is the same
// left-to-right addition CostModel::PredictProgram and
// Executor::MeasureProgram perform over LowerProgram's steps, so program
// totals are bit-identical to them.
//
// A trie is immutable once built; concurrent readers need no locking.
// The planner keeps one per signature in its synthesis cache
// (engine/synthesis_cache.h): each entry holds the trie of the default
// AllReduce followed by the entry's programs, built by the synthesis owner
// before publication or, for entries loaded from disk or the cache plane,
// on their first serve. A subsumed (truncated-cap) hit gets a trie of its
// own truncated list. A list that does not lower leaves its entry without
// a trie, and every serve that asks for one rethrows the build's error.
#ifndef P2_CORE_PROGRAM_TRIE_H_
#define P2_CORE_PROGRAM_TRIE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/lowering.h"
#include "core/reduction_dsl.h"
#include "core/synthesis_hierarchy.h"

namespace p2::core {

class ProgramTrie {
 public:
  struct Node {
    std::int32_t parent = -1;  ///< -1 for the root
    std::int32_t step = -1;    ///< index into steps(); -1 for the root
  };

  /// The trie of the concatenation of `lists`, lowered on `sh`'s synthesis
  /// hierarchy. Only the hierarchy's signature is read (its levels and
  /// synthesis device count), so the trie serves every hierarchy with the
  /// same signature. No lists, or only empty ones, leave the root alone.
  /// When some program is invalid, throws the
  /// std::invalid_argument core::LowerProgram would throw for the first
  /// such program in list order.
  ProgramTrie(const SynthesisHierarchy& sh,
              std::initializer_list<std::span<const Program>> lists);

  /// Every distinct program prefix; nodes()[0] is the empty prefix (the
  /// root), and every parent precedes its children.
  const std::vector<Node>& nodes() const { return nodes_; }
  /// The distinct lowered steps the nodes refer to.
  const std::vector<SynthesisStep>& steps() const { return steps_; }
  std::size_t num_programs() const { return terminals_.size(); }
  /// The node of the whole of program `program` (an index into the
  /// concatenated lists); the root for an empty program.
  std::int32_t terminal(std::size_t program) const {
    return terminals_[program];
  }

 private:
  std::vector<Node> nodes_;
  std::vector<SynthesisStep> steps_;
  std::vector<std::int32_t> terminals_;
};

}  // namespace p2::core

#endif  // P2_CORE_PROGRAM_TRIE_H_
