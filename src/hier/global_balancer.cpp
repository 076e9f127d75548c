#include "hier/global_balancer.hpp"

#include <algorithm>
#include <limits>

namespace tlb::hier {

LocalMaster& GlobalBalancer::master(int node) {
  while (masters_.size() <= static_cast<std::size_t>(node)) {
    masters_.emplace_back(static_cast<int>(masters_.size()));
  }
  return masters_[static_cast<std::size_t>(node)];
}

std::uint64_t GlobalBalancer::summary_refreshes() const {
  std::uint64_t total = 0;
  for (const LocalMaster& m : masters_) total += m.refreshes();
  return total;
}

const LocalMaster& GlobalBalancer::consult(int node,
                                           sched::SchedStats& stats) {
  LocalMaster& m = master(node);
  if (!m.fresh(view_.now(), kSummaryPeriod)) {
    stats.state_touched += m.refresh(view_, view_.now());
  }
  stats.state_touched += 1;  // the summary read itself
  return m;
}

int GlobalBalancer::slack_of(const NodeSummary& s, core::WorkerId w) {
  for (const WorkerSlack& ws : s.workers) {
    if (ws.worker == w) return ws.slack;
  }
  return 0;  // worker joined after the last refresh: no promised headroom
}

sched::Decision GlobalBalancer::pick(const nanos::Task& task,
                                     sched::SchedStats& stats) {
  ++stats.decisions;
  const core::Topology& topo = view_.topology();
  const core::WorkerId home = topo.home_worker(task.apprank);
  const int home_node = topo.home_node(task.apprank);
  double input_bytes = 0.0;
  for (const nanos::AccessRegion& a : task.accesses) {
    if (a.reads()) input_bytes += static_cast<double>(a.size);
  }

  // Level 1: the home node's master. Home placement needs no balancing —
  // any slack there wins (the flat locality rule agrees: resident bytes
  // are at home until tasks get offloaded).
  const LocalMaster& hm = consult(home_node, stats);
  if (view_.usable(home) && slack_of(hm.summary(), home) > 0) {
    LocalMaster& m = master(home_node);
    m.note_placed(home);
    m.observe_residency(task.apprank, input_bytes, view_.now());
    return {home, sched::DecisionKind::Baseline};
  }
  const double home_wait = hm.wait_estimate(view_.now());

  // Level 2: balance across the apprank's helper nodes by summary. The
  // candidate set is the expander adjacency (O(degree) nodes), each
  // consulted through its compact summary.
  const net::Fabric* net = view_.fabric();
  struct Candidate {
    core::WorkerId worker = -1;
    int node = -1;
    double ratio = 0.0;
    double residency = 0.0;
  };
  std::vector<Candidate> candidates;
  double best_ratio = std::numeric_limits<double>::infinity();
  bool considered = false;
  bool vetoed = false;
  for (const core::WorkerId w : topo.workers_of_apprank(task.apprank)) {
    if (w == home) continue;
    const int node = topo.worker(w).node;
    const LocalMaster& m = consult(node, stats);
    if (!view_.usable(w)) continue;  // live O(1) check beats any summary
    if (slack_of(m.summary(), w) <= 0) continue;
    considered = true;
    // Veto 1: the path from home is saturated — streaming input bytes
    // into it deepens the queue (same rule as the congestion policy).
    if (net != nullptr &&
        net->path_load(home_node, node) >= sched::kCongestionAvoid) {
      vetoed = true;
      continue;
    }
    // Veto 2: tasks queue on that node far longer than at home — the
    // offload moves the wait instead of removing it (per-helper wait
    // estimate, decayed so a drained node becomes a candidate again).
    if (m.wait_estimate(view_.now()) >
        sched::kWaitHelperFactor *
            std::max(home_wait, sched::kWaitOffloadMin)) {
      vetoed = true;
      continue;
    }
    Candidate c;
    c.worker = w;
    c.node = node;
    c.ratio = m.summary().load_ratio;
    c.residency = m.residency(task.apprank, view_.now());
    best_ratio = std::min(best_ratio, c.ratio);
    candidates.push_back(c);
  }
  if (considered) ++stats.offloads_considered;
  // Near-ties in load compete on residency: among candidates within
  // residency_band of the lowest load_ratio, take the warmest node for
  // this apprank (fewer input bytes to move). Ties — including the
  // no-history case where every residency is 0 — fall back to the lowest
  // ratio, first encountered, which is exactly the pre-residency rule.
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (c.ratio > best_ratio + hconf_.residency_band) continue;
    if (best == nullptr || c.residency > best->residency ||
        (c.residency == best->residency && c.ratio < best->ratio)) {
      best = &c;
    }
  }
  if (best != nullptr) {
    LocalMaster& m = master(best->node);
    m.note_placed(best->worker);
    m.observe_residency(task.apprank, input_bytes, view_.now());
    ++stats.offloads_steered;
    return {best->worker, sched::DecisionKind::Steered};
  }
  if (vetoed) {
    // Capacity existed but every candidate was vetoed by feedback: hold
    // the task centrally, an idle worker will steal it.
    ++stats.offloads_suppressed;
    return {-1, sched::DecisionKind::Suppressed};
  }
  return {-1, sched::DecisionKind::Baseline};  // cluster-wide saturation
}

void GlobalBalancer::on_task_started(core::WorkerId w, sim::SimTime wait) {
  const int node = view_.topology().worker(w).node;
  master(node).observe_wait(wait, view_.now());
}

}  // namespace tlb::hier
