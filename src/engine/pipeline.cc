#include "engine/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/placement.h"
#include "engine/baselines.h"
#include "engine/service.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// A program's evaluation before costing.
ProgramEvaluation Describe(const core::SynthesisHierarchy& sh,
                           const core::Program& program) {
  ProgramEvaluation eval;
  eval.program = program;
  eval.text = core::ToString(program, sh.level_names());
  eval.num_steps = static_cast<int>(program.size());
  return eval;
}

}  // namespace

ProgramEvaluation EvaluateProgramOnEngine(const Engine& engine,
                                          const core::SynthesisHierarchy& sh,
                                          const core::Program& program,
                                          bool measure) {
  ProgramEvaluation eval = Describe(sh, program);
  const core::LoweredProgram lowered = core::LowerProgram(sh, program);
  // One memo lookup per step for both costs, summed from 0.0 in program
  // order like Engine::PredictProgram / MeasureProgram.
  StepCostMemo::Key key;
  for (const core::LoweredStep& step : lowered.steps) {
    const StepCostMemo::StepCosts costs =
        engine.StepCosts(step, /*predict=*/true, measure, key);
    eval.predicted_seconds += costs.predicted;
    eval.measured_seconds += costs.measured;
  }
  eval.measured = measure;
  return eval;
}

Pipeline::Pipeline(PlannerService& service, const Engine& engine,
                   PipelineOptions options)
    : service_(service), engine_(engine), options_(options) {}

PlacementEvaluation Pipeline::Evaluate(
    const core::ParallelismMatrix& matrix, const core::SynthesisHierarchy& sh,
    const core::SynthesisResult& synthesis,
    const core::ProgramTrie& trie) const {
  const bool guided = options_.measure_top_k >= 0;
  const bool measure_all = !guided && engine_.options().measure;

  PlacementEvaluation eval;
  eval.matrix = matrix;
  eval.synthesis_seconds = synthesis.stats.seconds;
  eval.synthesis_stats = synthesis.stats;

  // Replicate each distinct step of the trie onto this placement once and
  // cost it in one memo lookup. Measurements wait until a program needs
  // them under guided evaluation.
  constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();
  const std::vector<core::SynthesisStep>& steps = trie.steps();
  const std::vector<core::ProgramTrie::Node>& nodes = trie.nodes();
  core::LoweredStep lowered;  // scratch for every replication
  StepCostMemo::Key key;
  std::vector<double> step_predicted(steps.size());
  std::vector<double> step_measured(steps.size(), kUnknown);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    core::ReplicateStep(sh, steps[s], lowered);
    const StepCostMemo::StepCosts costs =
        engine_.StepCosts(lowered, /*predict=*/true, measure_all, key);
    step_predicted[s] = costs.predicted;
    if (measure_all) step_measured[s] = costs.measured;
  }

  // A node's cost is its parent's plus its step's, from 0.0 at the root:
  // the same additions in the same order as CostModel::PredictProgram and
  // Executor::MeasureProgram make over LowerProgram's steps, so every
  // program total is bit-identical to theirs.
  std::vector<double> predicted(nodes.size(), 0.0);
  std::vector<double> measured(nodes.size(), kUnknown);
  measured[0] = 0.0;
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    const auto parent = static_cast<std::size_t>(nodes[n].parent);
    const auto step = static_cast<std::size_t>(nodes[n].step);
    predicted[n] = predicted[parent] + step_predicted[step];
    if (measure_all) measured[n] = measured[parent] + step_measured[step];
  }
  // The measured seconds of the prefix ending at `node`, measuring the
  // steps of its chain that nothing measured yet.
  std::vector<std::int32_t> chain;
  const auto measured_at = [&](std::int32_t node) {
    chain.clear();
    for (std::int32_t n = node;
         std::isnan(measured[static_cast<std::size_t>(n)]);
         n = nodes[static_cast<std::size_t>(n)].parent) {
      chain.push_back(n);
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const core::ProgramTrie::Node& at = nodes[static_cast<std::size_t>(*it)];
      const auto step = static_cast<std::size_t>(at.step);
      if (std::isnan(step_measured[step])) {
        core::ReplicateStep(sh, steps[step], lowered);
        step_measured[step] =
            engine_.StepCosts(lowered, /*predict=*/false, /*measure=*/true, key)
                .measured;
      }
      measured[static_cast<std::size_t>(*it)] =
          measured[static_cast<std::size_t>(at.parent)] + step_measured[step];
    }
    return measured[static_cast<std::size_t>(node)];
  };

  // eval.programs[j] is the program ending at trie node terminal_of[j].
  std::vector<std::int32_t> terminal_of;
  terminal_of.reserve(trie.num_programs());
  const auto add = [&](const core::Program& program, std::int32_t terminal) {
    ProgramEvaluation& p = eval.programs.emplace_back(Describe(sh, program));
    p.predicted_seconds = predicted[static_cast<std::size_t>(terminal)];
    if (measure_all) {
      p.measured_seconds = measured[static_cast<std::size_t>(terminal)];
      p.measured = true;
    }
    terminal_of.push_back(terminal);
  };
  eval.programs.reserve(trie.num_programs());
  // The default AllReduce (trie program 0) always comes first; the
  // synthesizer also finds it, so drop the duplicate from the synthesized
  // list.
  add(DefaultAllReduceProgram(), trie.terminal(0));
  eval.programs.front().is_default_allreduce = true;
  const core::ProgramTrie::Node& default_node =
      nodes[static_cast<std::size_t>(trie.terminal(0))];
  const auto& default_groups =
      steps[static_cast<std::size_t>(default_node.step)].groups;
  for (std::size_t i = 0; i < synthesis.programs.size(); ++i) {
    const std::int32_t terminal = trie.terminal(i + 1);
    const core::ProgramTrie::Node& node =
        nodes[static_cast<std::size_t>(terminal)];
    // A one-step AllReduce with the same lowered groups *is* the default.
    // Replica 0 maps synthesis devices one to one, so equal lowered groups
    // are equal synthesis groups.
    if (node.parent == 0) {
      const core::SynthesisStep& step =
          steps[static_cast<std::size_t>(node.step)];
      if (step.op == core::Collective::kAllReduce &&
          step.groups == default_groups) {
        continue;
      }
    }
    add(synthesis.programs[i], terminal);
  }

  if (guided) {
    // Measure the default AllReduce and the top-k by prediction (stable on
    // prediction ties, so the measured set is deterministic), and nothing
    // else: the paper's guided workflow.
    std::vector<std::size_t> order(eval.programs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return eval.programs[a].predicted_seconds <
                              eval.programs[b].predicted_seconds;
                     });
    const auto measure = [&](std::size_t index) {
      ProgramEvaluation& p = eval.programs[index];
      if (p.measured) return;  // the baseline may sit inside the top-k
      p.measured_seconds = measured_at(terminal_of[index]);
      p.measured = true;
    };
    measure(0);  // the baseline is always measured
    const std::size_t k = std::min(
        static_cast<std::size_t>(options_.measure_top_k), order.size());
    for (std::size_t i = 0; i < k; ++i) measure(order[i]);
  }
  return eval;
}

ExperimentResult Pipeline::Run(std::span<const std::int64_t> axes,
                               std::span<const int> reduction_axes) {
  const auto start = std::chrono::steady_clock::now();
  // A request aborted while queued (deadline already past, Cancel() before
  // the pool got to it) unwinds before doing any work.
  options_.cancel.ThrowIfCancelled();
  // Placements come in deterministic lexicographic order.
  ExperimentResult result = Run(
      core::EnumeratePlacements(engine_.cluster().hierarchy(), axes),
      reduction_axes);
  result.axes.assign(axes.begin(), axes.end());
  result.pipeline.total_seconds = SecondsSince(start);
  return result;
}

ExperimentResult Pipeline::Run(
    std::span<const core::ParallelismMatrix> placements,
    std::span<const int> reduction_axes) {
  const auto start = std::chrono::steady_clock::now();
  ExperimentResult result;
  result.reduction_axes.assign(reduction_axes.begin(), reduction_axes.end());
  result.algo = engine_.options().algo;
  result.payload_bytes = engine_.payload_bytes();
  const std::size_t n = placements.size();

  // Build each placement's synthesis hierarchy and group placements by
  // signature. `members_of[u]` lists the placements sharing unique
  // signature u, in placement order.
  std::vector<core::SynthesisHierarchy> hierarchies;
  hierarchies.reserve(n);
  for (const auto& matrix : placements) {
    hierarchies.push_back(core::SynthesisHierarchy::Build(
        matrix, reduction_axes, engine_.options().hierarchy_kind,
        engine_.options().collapse_hierarchy));
  }
  std::vector<std::vector<std::size_t>> members_of;
  std::unordered_map<std::string, std::size_t> group_of_signature;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = group_of_signature.try_emplace(
        SynthesisCache::BaseKey(hierarchies[i], engine_.options().synthesis),
        members_of.size());
    if (inserted) members_of.emplace_back();
    members_of[it->second].push_back(i);
  }

  // The engine's synthesis knobs plus this request's token. The token is
  // execution-only (SynthesisCache::BaseKey excludes it, so the grouping
  // above keyed with the plain options gets the same groups): cache entries
  // stay shared across requests regardless of who carries a token.
  core::SynthesisOptions synth_options = engine_.options().synthesis;
  synth_options.cancel = options_.cancel;
  SynthesisCache& cache = service_.cache();
  // Each placement's synthesis, lookup outcome and evaluation land in their
  // own slots: this request's cache accounting below is deterministic in
  // placement order and never includes other requests' activity, and the
  // placement-ordered slots *are* the deterministic merge — the output
  // matches the serial path byte for byte.
  std::vector<std::shared_ptr<const core::SynthesisResult>> synthesis(n);
  std::vector<CacheLookupOutcome> outcomes(n);
  std::vector<double> eval_seconds(n, 0.0);
  result.placements.resize(n);

  // This request's work items. Other in-flight requests have their own
  // groups on the same pool; the scheduler interleaves them round-robin and
  // Wait helps execute instead of idling a worker, so requests running *as*
  // pool tasks make progress too.
  ThreadPool::TaskGroup group(service_.pool());
  // The one in-flight decision. Deferring needs a concurrent peer to commit
  // the deferred task: on an inline pool nothing else runs, so a lookup
  // that finds a foreign synthesis in flight blocks instead — as it does
  // when defer_inflight is off (the parked baseline bench_pipeline's
  // contended variant measures against).
  const bool defer =
      options_.defer_inflight && service_.pool().num_threads() > 0;

  struct GroupState {
    std::size_t next_member = 0;  ///< members resolved so far
    SynthesisCache::DeferredLookup deferred;
    /// The group's lowered program list, built once every member is
    /// resolved, and the time building it took.
    std::optional<core::ProgramTrie> trie;
    double trie_seconds = 0.0;
  };
  std::vector<GroupState> group_states(members_of.size());
  std::atomic<std::int64_t> deferred_events{0};

  // One FireState per deferral: whoever wins the fire-once CAS commits the
  // re-enqueued resolve task — the cache continuation, or the cancel kick
  // below. The shared_ptr keeps a late losing fire (a continuation an owner
  // extracted before CancelDeferred could withdraw it) safe even after this
  // frame unwound: it CAS-fails and touches nothing.
  struct FireState {
    std::atomic<bool> fired{false};
    ThreadPool::TaskGroup* group = nullptr;
    std::function<void()> task;
  };
  const auto try_fire = [](const std::shared_ptr<FireState>& state) {
    bool expected = false;
    if (state->fired.compare_exchange_strong(expected, true)) {
      state->group->CommitDeferred(std::move(state->task));
    }
  };
  std::mutex fire_mu;
  bool kicked = false;  // guarded by fire_mu
  std::vector<std::shared_ptr<FireState>> pending_fires;  // ditto

  // One self-re-enqueueing resolve task per signature group. A group whose
  // signature another request is synthesizing either defers — reserves its
  // pool slot, registers a completion continuation and returns, so the
  // worker runs other pending tasks (this request's or anyone else's)
  // instead of parking, and the continuation (owner publish or owner death)
  // commits the task back into the group — or blocks in GetOrSynthesize.
  // Once every member holds its synthesis the group fans its evaluations
  // into the same TaskGroup, where they interleave with other groups'
  // synthesis instead of waiting behind a barrier.
  std::function<void(std::size_t)> resolve = [&](std::size_t g) {
    MaybeInjectFault("pipeline.synthesize");
    options_.cancel.ThrowIfCancelled();
    GroupState& state = group_states[g];
    const auto& members = members_of[g];
    for (; state.next_member < members.size(); ++state.next_member) {
      const std::size_t i = members[state.next_member];
      if (!defer) {
        synthesis[i] = cache.GetOrSynthesize(hierarchies[i], synth_options,
                                             &outcomes[i], options_.tenant);
        continue;
      }
      // Reserve the pool slot BEFORE the lookup can register the
      // continuation: a continuation firing instantly must find the
      // reservation its CommitDeferred settles.
      group.ReserveDeferred();
      auto fire = std::make_shared<FireState>();
      fire->group = &group;
      fire->task = [&resolve, g] { resolve(g); };
      SynthesisCache::TryLookupResult looked = cache.TryLookup(
          hierarchies[i], synth_options, [fire, try_fire] { try_fire(fire); },
          &state.deferred, &outcomes[i], options_.tenant);
      if (looked.state == SynthesisCache::TryLookupState::kInFlight) {
        deferred_events.fetch_add(1, std::memory_order_relaxed);
        // Publish the pending fire for the cancel kick. If the kick already
        // ran, nobody walks the registry again — self-fire, and the
        // committed re-run observes the cancellation and unwinds.
        bool kick_now = false;
        {
          std::lock_guard<std::mutex> fire_lock(fire_mu);
          pending_fires.push_back(fire);
          kick_now = kicked;
        }
        if (kick_now) try_fire(fire);
        // The reservation keeps group.Wait blocked (and helping) until
        // exactly one CommitDeferred re-runs this task.
        return;
      }
      // Not deferred: no continuation was registered, so the FireState is
      // ours alone — neutralize it and release the unused reservation.
      fire->fired.store(true, std::memory_order_relaxed);
      group.AbandonDeferred();
      // The owner never defers on its own claim, so every in-flight
      // signature always has a running owner: owner chains cannot cycle.
      synthesis[i] = looked.state == SynthesisCache::TryLookupState::kOwned
                         ? cache.ResolveOwned(hierarchies[i], synth_options,
                                              &outcomes[i], options_.tenant)
                         : std::move(looked.result);
    }
    // All members resolved. They share one program list (one BaseKey plus
    // one cap is one list), so the group lowers it once on the synthesis
    // hierarchy, behind the default AllReduce every placement evaluates
    // first.
    const auto trie_start = std::chrono::steady_clock::now();
    const std::size_t first = members.front();
    const core::Program default_ar = DefaultAllReduceProgram();
    state.trie.emplace(
        hierarchies[first],
        std::initializer_list<std::span<const core::Program>>{
            std::span(&default_ar, 1), synthesis[first]->programs});
    state.trie_seconds = SecondsSince(trie_start);
    // Fan the group's evaluations into the same TaskGroup (submitting
    // without waiting from inside a task is supported); they share the trie
    // read-only.
    for (const std::size_t i : members) {
      group.Submit([&, i, &trie = *state.trie] {
        MaybeInjectFault("pipeline.evaluate");
        options_.cancel.ThrowIfCancelled();
        const auto eval_start = std::chrono::steady_clock::now();
        result.placements[i] =
            Evaluate(placements[i], hierarchies[i], *synthesis[i], trie);
        eval_seconds[i] = SecondsSince(eval_start);
      });
    }
  };

  for (std::size_t g = 0; g < members_of.size(); ++g) {
    group.Submit([&resolve, g] { resolve(g); });
  }
  // The cancel kick flushes every pending deferral back into the queue. It
  // COMMITS (never abandons), so each pool reservation is settled by
  // exactly one commit; the re-run tasks observe the cancellation at their
  // checkpoint and unwind into the group's first error, which Wait rethrows
  // with the usual abort taxonomy. Setting `kicked` under fire_mu closes
  // the race with deferrals registering concurrently — they self-fire
  // above.
  const auto kick = [&] {
    std::vector<std::shared_ptr<FireState>> snapshot;
    {
      std::lock_guard<std::mutex> fire_lock(fire_mu);
      kicked = true;
      snapshot.swap(pending_fires);
    }
    for (const auto& fire : snapshot) try_fire(fire);
  };
  std::exception_ptr error;
  try {
    group.Wait(options_.cancel, kick);
  } catch (...) {
    error = std::current_exception();
  }
  // Wait returned: every pool reservation is settled and no resolve task is
  // running or pending — but a group whose committed task was
  // fail-fast-skipped (or threw at its re-entry checkpoint) still holds its
  // cache-side reservation and continuation registration. Settle them.
  for (GroupState& state : group_states) cache.CancelDeferred(&state.deferred);
  if (error != nullptr) std::rethrow_exception(error);

  result.pipeline.num_placements = static_cast<std::int64_t>(n);
  result.pipeline.unique_hierarchies =
      static_cast<std::int64_t>(members_of.size());
  for (std::size_t i = 0; i < n; ++i) {
    const PlacementEvaluation& placement = result.placements[i];
    result.pipeline.synth_states_visited +=
        placement.synthesis_stats.states_visited;
    result.pipeline.synth_states_deduped +=
        placement.synthesis_stats.states_deduped;
    result.pipeline.synth_branches_pruned +=
        placement.synthesis_stats.branches_pruned;
    // The synthesis runs this request performed itself: its misses.
    if (!outcomes[i].hit) {
      result.pipeline.synthesis_seconds += synthesis[i]->stats.seconds;
    }
    result.pipeline.evaluation_seconds += eval_seconds[i];
  }
  for (const GroupState& state : group_states) {
    result.pipeline.evaluation_seconds += state.trie_seconds;
  }
  // Cache accounting from this request's own lookups, summed in placement
  // order (deterministic and double-reproducible — unlike global cache
  // deltas, which under concurrent requests would absorb everyone else's
  // hits and misses).
  for (const CacheLookupOutcome& o : outcomes) {
    if (o.hit) {
      ++result.pipeline.cache_hits;
      result.pipeline.synthesis_seconds_saved += o.seconds_saved;
      if (o.from_disk) {
        ++result.pipeline.cache_disk_hits;
        result.pipeline.disk_seconds_saved += o.seconds_saved;
      }
      if (o.from_remote) ++result.pipeline.cache_remote_hits;
      if (o.cross_tenant) ++result.pipeline.cache_cross_tenant_hits;
    } else {
      ++result.pipeline.cache_misses;
    }
    if (o.waited) ++result.pipeline.cache_dedup_waits;
  }
  result.pipeline.cache_deferred_lookups =
      deferred_events.load(std::memory_order_relaxed);
  result.pipeline.total_seconds = SecondsSince(start);
  result.pipeline.threads = std::max(1, service_.options().threads);
  return result;
}

}  // namespace p2::engine
