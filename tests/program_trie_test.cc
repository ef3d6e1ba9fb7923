// Differential tests of prefix-shared lowering (core/program_trie.h): on
// every placement of the appendix grid, each program's chain of trie nodes,
// replicated onto the placement, must equal core::LowerProgram's steps bit
// for bit — including placements that share the trie of another placement
// with the same synthesis-hierarchy signature. Invalid lists must fail with
// LowerProgram's error, and an empty list must leave the root alone.
#include "core/program_trie.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lowering.h"
#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "topology/presets.h"

namespace p2::core {
namespace {

using Prefix = std::vector<std::array<int, 4>>;

std::array<int, 4> Encode(const Instruction& instr) {
  return {instr.slice_level, static_cast<int>(instr.form.kind),
          instr.form.ancestor_level, static_cast<int>(instr.op)};
}

std::size_t DistinctPrefixes(const std::vector<Program>& programs) {
  std::set<Prefix> prefixes = {Prefix{}};
  for (const Program& program : programs) {
    Prefix prefix;
    for (const Instruction& instr : program) {
      prefix.push_back(Encode(instr));
      prefixes.insert(prefix);
    }
  }
  return prefixes.size();
}

// The trie's nodes for `program`, root excluded, in program order.
std::vector<std::int32_t> Chain(const ProgramTrie& trie, std::size_t program) {
  std::vector<std::int32_t> chain;
  for (std::int32_t node = trie.terminal(program); node > 0;
       node = trie.nodes()[static_cast<std::size_t>(node)].parent) {
    chain.insert(chain.begin(), node);
  }
  return chain;
}

void ExpectSameStep(const LoweredStep& actual, const LoweredStep& expected,
                    const std::string& where) {
  EXPECT_EQ(actual.op, expected.op) << where;
  EXPECT_EQ(actual.groups, expected.groups) << where;
  EXPECT_EQ(actual.sorted_orders, expected.sorted_orders) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.in_fraction),
            std::bit_cast<std::uint64_t>(expected.in_fraction))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.out_fraction),
            std::bit_cast<std::uint64_t>(expected.out_fraction))
      << where;
}

// Checks every program of `programs` through `trie` on placement `sh`.
void ExpectMatchesLowerProgram(const ProgramTrie& trie,
                               const SynthesisHierarchy& sh,
                               const std::vector<Program>& programs,
                               const std::string& where) {
  ASSERT_EQ(trie.num_programs(), programs.size()) << where;
  LoweredStep replicated;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const LoweredProgram lowered = LowerProgram(sh, programs[i]);
    const std::vector<std::int32_t> chain = Chain(trie, i);
    ASSERT_EQ(chain.size(), lowered.steps.size()) << where << " program " << i;
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const std::int32_t step =
          trie.nodes()[static_cast<std::size_t>(chain[j])].step;
      ASSERT_GE(step, 0) << where;
      ReplicateStep(sh, trie.steps()[static_cast<std::size_t>(step)],
                    replicated);
      ExpectSameStep(replicated, lowered.steps[j],
                     where + " program " + std::to_string(i) + " step " +
                         std::to_string(j));
    }
  }
}

topology::Cluster ClusterFor(const std::string& name) {
  if (name == "a100") return topology::MakeA100Cluster(2);
  if (name == "v100") return topology::MakeV100Cluster(2);
  return topology::MakeRackedA100Cluster(2, 2);
}

class ProgramTrieGrid : public ::testing::TestWithParam<std::string> {};

TEST_P(ProgramTrieGrid, ReplicatedChainsEqualLowerProgramOnEveryPlacement) {
  const engine::Engine engine(ClusterFor(GetParam()));
  std::size_t placements = 0;
  for (const engine::ExperimentConfig& config :
       engine::FullGrid(engine.cluster())) {
    // Placements with one signature share one trie, built on the first of
    // them, as the pipeline's signature groups do.
    std::map<std::string, std::vector<Program>> programs_of;
    std::map<std::string, ProgramTrie> trie_of;
    for (const ParallelismMatrix& matrix :
         engine.SynthesizePlacements(config.axes)) {
      const SynthesisHierarchy sh = SynthesisHierarchy::Build(
          matrix, config.reduction_axes, engine.options().hierarchy_kind,
          engine.options().collapse_hierarchy);
      const std::string signature = sh.Signature();
      if (!programs_of.contains(signature)) {
        std::vector<Program>& programs = programs_of[signature];
        programs.push_back(engine::DefaultAllReduceProgram());
        for (Program& p :
             SynthesizePrograms(sh, engine.options().synthesis).programs) {
          programs.push_back(std::move(p));
        }
        const ProgramTrie& trie =
            trie_of.try_emplace(signature, sh,
                                std::initializer_list<std::span<const Program>>{
                                    programs})
                .first->second;
        EXPECT_EQ(trie.nodes().size(), DistinctPrefixes(programs))
            << config.ToString();
        for (std::size_t n = 1; n < trie.nodes().size(); ++n) {
          EXPECT_LT(trie.nodes()[n].parent, static_cast<std::int32_t>(n));
        }
        EXPECT_LE(trie.steps().size(), trie.nodes().size() - 1);
      }
      ExpectMatchesLowerProgram(trie_of.at(signature), sh,
                                programs_of.at(signature), config.ToString());
      ++placements;
    }
  }
  EXPECT_GT(placements, 0u);
}

INSTANTIATE_TEST_SUITE_P(Clusters, ProgramTrieGrid,
                         ::testing::Values("a100", "v100", "racked"));

// Fig 2d placement, reduction along parameter sharding: synthesis levels
// [1(root) 1 2 1 2].
SynthesisHierarchy Fig2dHierarchy() {
  const ParallelismMatrix m({{1, 1, 2, 2}, {1, 2, 1, 2}});
  const std::vector<int> axes = {1};
  return SynthesisHierarchy::Build(m, axes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

const Instruction kLocalAllReduce{2, Form::InsideGroup(),
                                  Collective::kAllReduce};
const Instruction kRemoteAllReduce{2, Form::Parallel(0),
                                   Collective::kAllReduce};
// Below the last level every subtree is one device: singleton groups only.
const Instruction kTrivial{4, Form::InsideGroup(), Collective::kAllReduce};
const Instruction kNoSuchLevel{9, Form::InsideGroup(), Collective::kAllReduce};

std::string LowerProgramError(const SynthesisHierarchy& sh,
                              const Program& program) {
  try {
    LowerProgram(sh, program);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string TrieError(const SynthesisHierarchy& sh,
                      const std::vector<Program>& programs) {
  try {
    ProgramTrie trie(sh, {programs});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ProgramTrie, InvalidProgramThrowsLowerProgramsError) {
  const auto sh = Fig2dHierarchy();
  const Program valid = {kLocalAllReduce, kRemoteAllReduce};
  // Reducing the local pairs twice folds the same data in again.
  const Program twice = {kLocalAllReduce, kLocalAllReduce};
  const Program trivial = {kTrivial};
  const std::string twice_error = LowerProgramError(sh, twice);
  const std::string trivial_error = LowerProgramError(sh, trivial);
  ASSERT_FALSE(twice_error.empty());
  ASSERT_FALSE(trivial_error.empty());
  ASSERT_NE(twice_error, trivial_error);

  EXPECT_EQ(TrieError(sh, {valid, twice}), twice_error);
  EXPECT_EQ(TrieError(sh, {trivial}), trivial_error);
  // The first invalid program in list order decides, whichever failing
  // node the walk reaches first.
  EXPECT_EQ(TrieError(sh, {valid, trivial, twice}), trivial_error);
  EXPECT_EQ(TrieError(sh, {valid, twice, trivial}), twice_error);
  // Grouping errors are LowerProgram's too.
  const Program no_such_level = {kLocalAllReduce, kNoSuchLevel};
  EXPECT_EQ(TrieError(sh, {valid, no_such_level}),
            LowerProgramError(sh, no_such_level));
  EXPECT_EQ(TrieError(sh, {valid}), "");
}

TEST(ProgramTrie, EmptyListsAndEmptyProgramsLeaveTheRoot) {
  const auto sh = Fig2dHierarchy();
  const ProgramTrie none(sh, {});
  EXPECT_EQ(none.nodes().size(), 1u);
  EXPECT_EQ(none.num_programs(), 0u);
  EXPECT_TRUE(none.steps().empty());

  const std::vector<Program> empty_program = {Program{}};
  const ProgramTrie root_only(sh, {std::vector<Program>{}, empty_program});
  EXPECT_EQ(root_only.nodes().size(), 1u);
  ASSERT_EQ(root_only.num_programs(), 1u);
  EXPECT_EQ(root_only.terminal(0), 0);
}

TEST(ProgramTrie, SharedPrefixesShareNodesAndEqualStepsShareEntries) {
  const auto sh = Fig2dHierarchy();
  const Program local = {kLocalAllReduce};
  const Program both = {kLocalAllReduce, kRemoteAllReduce};
  const Program reversed = {kRemoteAllReduce, kLocalAllReduce};
  const std::vector<Program> programs = {local, both, reversed, both};
  const ProgramTrie trie(sh, {programs});
  // Root, [L], [L R], [R], [R L].
  EXPECT_EQ(trie.nodes().size(), 5u);
  EXPECT_EQ(trie.terminal(1), trie.terminal(3));
  EXPECT_EQ(trie.nodes()[static_cast<std::size_t>(trie.terminal(1))].parent,
            trie.terminal(0));
  // An AllReduce over pairs moves the same volume first or second, so [L]
  // and [R L] end in one step entry, as do [R] and [L R].
  EXPECT_EQ(trie.steps().size(), 2u);
  ExpectMatchesLowerProgram(trie, sh, programs, "fig2d");
}

}  // namespace
}  // namespace p2::core
