#include "runtime/flow_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace p2::runtime {

namespace {

constexpr double kEps = 1e-12;

struct ActiveFlow {
  int task = -1;
  const Flow* spec = nullptr;
  double remaining = 0.0;
  double rate = 0.0;
};

// Buffers of one Run call, reused by every event and rate recomputation so
// the event loop allocates nothing once they have grown to size.
struct RunScratch {
  std::vector<int> count;         ///< per link: unfrozen flows crossing it
  std::vector<char> frozen;       ///< per active flow
  std::vector<double> cap;        ///< per link: capacity left to share
  std::vector<char> task_completed;  ///< per task: a round finished this event
};

// Progressive filling: assigns max-min fair rates to the active flows.
void ComputeRates(std::vector<ActiveFlow>& flows,
                  const std::vector<Link>& links, RunScratch& scratch) {
  std::vector<int>& count = scratch.count;
  std::vector<char>& frozen = scratch.frozen;
  std::vector<double>& cap = scratch.cap;
  count.assign(links.size(), 0);
  frozen.assign(flows.size(), 0);
  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].spec->links.empty()) {
      // Degenerate flow with no links: drains instantly.
      flows[f].rate = std::numeric_limits<double>::infinity();
      frozen[f] = 1;
      continue;
    }
    ++unfrozen;
    for (int l : flows[f].spec->links) {
      ++count[static_cast<std::size_t>(l)];
    }
  }
  // Effective capacities: congested links (NICs of the measured network)
  // lose throughput as concurrent flows pile up.
  cap.resize(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    const double degrade =
        1.0 + links[l].congestion * std::max(0, count[l] - 1);
    cap[l] = links[l].bandwidth / degrade;
  }

  while (unfrozen > 0) {
    // Bottleneck share.
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < links.size(); ++l) {
      if (count[l] > 0) share = std::min(share, cap[l] / count[l]);
    }
    if (!std::isfinite(share)) {
      throw std::logic_error("FlowSimulator: no bottleneck found");
    }
    // Freeze every unfrozen flow crossing a bottleneck link.
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen[f]) continue;
      bool bottlenecked = false;
      for (int l : flows[f].spec->links) {
        const auto li = static_cast<std::size_t>(l);
        if (count[li] > 0 && cap[li] / count[li] <= share * (1.0 + 1e-9)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      flows[f].rate = share;
      frozen[f] = 1;
      --unfrozen;
      for (int l : flows[f].spec->links) {
        const auto li = static_cast<std::size_t>(l);
        cap[li] -= share;
        if (cap[li] < 0) cap[li] = 0;
        --count[li];
      }
    }
  }
}

}  // namespace

double FlowSimulator::Run(const std::vector<TaskSequence>& tasks,
                          FlowSimStats* stats) const {
  const auto& links = network_.links();

  struct TaskState {
    std::size_t next_round = 0;
    int inflight = 0;
  };
  std::vector<TaskState> task_state(tasks.size());
  RunScratch scratch;
  scratch.task_completed.assign(tasks.size(), 0);

  std::vector<ActiveFlow> active;
  // (start_time, task) pending round starts.
  using Pending = std::pair<double, std::size_t>;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending;

  double now = 0.0;
  double makespan = 0.0;

  auto start_round = [&](std::size_t task, double t) {
    const TaskSequence& seq = tasks[task];
    TaskState& st = task_state[task];
    // Empty rounds complete instantly; chain until a round has real flows.
    while (st.next_round < seq.rounds.size() && st.inflight == 0) {
      const Round& round = seq.rounds[st.next_round];
      ++st.next_round;
      for (const Flow& f : round.flows) {
        if (f.bytes <= 0.0) continue;
        active.push_back(
            ActiveFlow{static_cast<int>(task), &f, f.bytes, 0.0});
        ++st.inflight;
      }
      makespan = std::max(makespan, t);
    }
  };

  for (std::size_t t = 0; t < tasks.size(); ++t) pending.push({0.0, t});

  bool dirty = true;
  while (!active.empty() || !pending.empty()) {
    // Admit every round scheduled at or before `now` when nothing is active,
    // or exactly at `now` otherwise.
    if (active.empty() && !pending.empty() && pending.top().first > now) {
      now = pending.top().first;
    }
    while (!pending.empty() && pending.top().first <= now + kEps) {
      const auto [t0, task] = pending.top();
      pending.pop();
      start_round(task, now);
      dirty = true;
    }
    if (active.empty()) continue;

    if (dirty) {
      ComputeRates(active, links, scratch);
      if (stats != nullptr) ++stats->rate_recomputations;
      dirty = false;
    }

    // Earliest flow completion, capped by the next pending round start.
    double dt = std::numeric_limits<double>::infinity();
    for (const ActiveFlow& f : active) {
      if (f.rate > 0) dt = std::min(dt, f.remaining / f.rate);
    }
    if (!pending.empty()) {
      dt = std::min(dt, pending.top().first - now);
    }
    if (!std::isfinite(dt)) {
      throw std::logic_error("FlowSimulator: stalled flows");
    }
    dt = std::max(dt, 0.0);
    now += dt;

    // Drain and collect completions.
    std::vector<char>& task_completed = scratch.task_completed;
    std::size_t w = 0;
    for (std::size_t f = 0; f < active.size(); ++f) {
      ActiveFlow& af = active[f];
      af.remaining -= af.rate * dt;
      if (af.remaining <= kEps * std::max(1.0, af.spec->bytes)) {
        TaskState& st = task_state[static_cast<std::size_t>(af.task)];
        --st.inflight;
        if (stats != nullptr) ++stats->flows_completed;
        dirty = true;
        // Round complete when the last inflight flow of this task drains.
        if (st.inflight == 0) {
          task_completed[static_cast<std::size_t>(af.task)] = 1;
        }
      } else {
        active[w++] = af;
      }
    }
    active.resize(w);

    for (std::size_t task = 0; task < tasks.size(); ++task) {
      if (task_completed[task] == 0) continue;
      task_completed[task] = 0;
      // Latency of the just-finished round: rounds pay their (max) message
      // latency once, before the next round may start.
      const TaskSequence& seq = tasks[task];
      const std::size_t done = task_state[task].next_round - 1;
      double latency = 0.0;
      for (const Flow& f : seq.rounds[done].flows) {
        latency = std::max(latency, f.latency);
      }
      const double end = now + latency;
      makespan = std::max(makespan, end);
      if (task_state[task].next_round < seq.rounds.size()) {
        pending.push({end, task});
      }
    }
  }
  return std::max(makespan, now);
}

}  // namespace p2::runtime
