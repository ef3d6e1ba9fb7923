// Synthesis hierarchies (paper Sections 2.5 and 3.4, Table 1): the hierarchy
// over which reduction programs are synthesized, together with the data
// needed to lower synthesized programs back onto the full system.
//
// The four variants of the paper:
//   (a) kSystem        — the hardware hierarchy itself, e.g. [1 2 2 4]
//   (b) kColumnMajor   — parallelism factors flattened by columns
//   (c) kRowMajor      — parallelism factors flattened by rows
//   (d) kReductionAxes — only the reduction axes' factors (P2's choice;
//                        Theorem 3.2 proves (d) >= (c) >= (b) >= (a)),
//                        optionally collapsing factors that live on the same
//                        hardware level, and with a (root, 1) level prepended.
//
// For (d) the synthesis devices are the members of one reduction group
// (k' = product of the reduction axes) and the goal is a full reduction over
// all of them; lowering replicates the grouping pattern over every
// assignment of the non-reduction axes' coordinates. For (a)-(c) synthesis
// devices are all devices (under a variant-specific renumbering) and the
// goal keeps one group per non-reduction coordinate assignment.
#ifndef P2_CORE_SYNTHESIS_HIERARCHY_H_
#define P2_CORE_SYNTHESIS_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/placement.h"

namespace p2::core {

enum class SynthesisHierarchyKind {
  kSystem,         // (a)
  kColumnMajor,    // (b)
  kRowMajor,       // (c)
  kReductionAxes,  // (d)
};

const char* ToString(SynthesisHierarchyKind k);

class SynthesisHierarchy {
 public:
  /// `collapse` only affects kReductionAxes: multiply the reduction axes'
  /// factors living on the same hardware level together (Table 1, bottom).
  static SynthesisHierarchy Build(const ParallelismMatrix& matrix,
                                  std::span<const int> reduction_axes,
                                  SynthesisHierarchyKind kind,
                                  bool collapse = true);

  SynthesisHierarchyKind kind() const { return kind_; }
  const ParallelismMatrix& matrix() const { return layout_.matrix(); }
  const PlacementLayout& layout() const { return layout_; }
  const std::vector<int>& reduction_axes() const { return reduction_axes_; }

  /// Level cardinalities of the synthesis hierarchy, outermost first.
  const std::vector<std::int64_t>& levels() const { return levels_; }
  const std::vector<std::string>& level_names() const { return level_names_; }

  std::int64_t num_synth_devices() const { return num_synth_devices_; }
  std::int64_t num_replicas() const { return num_replicas_; }
  std::int64_t num_global_devices() const { return layout_.num_devices(); }

  /// Global device implementing synthesis device `synth` in copy `replica`.
  std::int64_t GlobalDevice(std::int64_t synth, std::int64_t replica) const;
  /// The global devices of copy `replica`, indexed by synthesis device: one
  /// bounds check for the whole copy, for loops that map many groups.
  std::span<const std::int64_t> ReplicaDevices(std::int64_t replica) const {
    return device_map_.at(static_cast<std::size_t>(replica));
  }

  /// Goal partition of the synthesis devices (synth indices). For
  /// kReductionAxes this is a single group of all synthesis devices.
  const std::vector<std::vector<std::int64_t>>& goal_groups() const {
    return goal_groups_;
  }

  /// Canonical signature of the synthesis problem this hierarchy poses:
  /// the level cardinalities plus the goal-group partition of the synthesis
  /// devices. Everything SynthesizePrograms depends on — the grouping
  /// alphabet (derived from the levels), the synthesis device count (their
  /// product) and the goal context — is a function of the signature, so two
  /// hierarchies with equal signatures yield identical program lists. The
  /// signature is invariant under global-device renumbering (the device map
  /// only affects lowering), which is what lets isomorphic placements of one
  /// experiment share a single synthesis run.
  std::string Signature() const;

 private:
  SynthesisHierarchy(PlacementLayout layout, std::vector<int> reduction_axes,
                     SynthesisHierarchyKind kind);

  SynthesisHierarchyKind kind_;
  PlacementLayout layout_;
  std::vector<int> reduction_axes_;
  std::vector<std::int64_t> levels_;
  std::vector<std::string> level_names_;
  std::int64_t num_synth_devices_ = 0;
  std::int64_t num_replicas_ = 1;
  std::vector<std::vector<std::int64_t>> device_map_;  // [replica][synth]
  std::vector<std::vector<std::int64_t>> goal_groups_;
};

}  // namespace p2::core

#endif  // P2_CORE_SYNTHESIS_HIERARCHY_H_
