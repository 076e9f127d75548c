#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "prof/prof.hpp"

namespace tlb::net {

namespace {
/// Residual bytes below this are complete (guards float drift when a
/// flow's remaining time is recomputed many times).
constexpr double kByteEpsilon = 1e-6;
}  // namespace

Fabric::Fabric(sim::Engine& engine, NetTopology topology)
    : engine_(engine), topo_(std::move(topology)) {
  const std::size_t links = static_cast<std::size_t>(topo_.link_count());
  link_mult_.assign(links, 1.0);
  last_util_.assign(links, 0.0);
  util_at_.assign(links, 0.0);
  peak_util_.assign(links, 0.0);
  congested_.assign(links, 0);
  capacity_.resize(links);
  for (std::size_t sl = 0; sl < links; ++sl) update_capacity(sl);
  residual_.resize(links);
  unfrozen_count_.resize(links);
  share_.resize(links);
  load_.resize(links);
  crossing_.resize(links);
}

Fabric::~Fabric() {
  // Flows still in flight at teardown: release their net.flow charge so
  // the allocation accounting balances to zero (charged in start_flow,
  // normally released in complete()/cancel()).
  if (prof::enabled() && !flows_.empty()) {
    prof::free_note(prof::AllocTag::NetFlow, flows_.size() * sizeof(Flow));
  }
}

void Fabric::update_capacity(std::size_t link) {
  capacity_[link] = topo_.link(static_cast<LinkId>(link)).capacity *
                    bandwidth_mult_ * link_mult_[link];
}

double Fabric::effective_capacity(LinkId link) const {
  return capacity_[static_cast<std::size_t>(link)];
}

double Fabric::path_load(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  double load = 0.0;
  for (const LinkId l : topo_.route(src, dst)) {
    load = std::max(load, current_utilization(l));
  }
  return load;
}

double Fabric::path_capacity(NodeId src, NodeId dst) const {
  if (src == dst) return std::numeric_limits<double>::infinity();
  double cap = std::numeric_limits<double>::infinity();
  for (const LinkId l : topo_.route(src, dst)) {
    cap = std::min(cap, effective_capacity(l));
  }
  return cap;
}

std::vector<std::pair<FlowId, Fabric::Flow*>>::iterator Fabric::streaming_slot(
    FlowId id) {
  return std::lower_bound(streaming_.begin(), streaming_.end(), id,
                          [](const std::pair<FlowId, Flow*>& s, FlowId key) {
                            return s.first < key;
                          });
}

double Fabric::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end() || !it->second.injected) return 0.0;
  return it->second.rate;
}

FlowId Fabric::start_flow(NodeId src, NodeId dst, std::uint64_t bytes,
                          std::function<void()> on_complete,
                          sim::SimTime extra_latency) {
  assert(src != dst && "intra-node traffic never enters the fabric");
  assert(src >= 0 && src < topo_.node_count());
  assert(dst >= 0 && dst < topo_.node_count());
  const FlowId id = next_id_++;
  ++started_;

  Flow flow;
  flow.route = &topo_.route(src, dst);
  flow.bytes = bytes;
  flow.remaining = static_cast<double>(bytes);
  flow.started_at = engine_.now();
  flow.on_complete = std::move(on_complete);

  const sim::SimTime latency =
      topo_.path_latency(src, dst) * latency_mult_ + extra_latency;
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  assert(inserted);
  (void)inserted;
  prof::alloc_note(prof::AllocTag::NetFlow, sizeof(Flow));
  it->second.inject_event =
      engine_.after(latency, [this, id] { inject(id); });
  return id;
}

void Fabric::inject(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  Flow& flow = it->second;
  flow.inject_event = sim::kInvalidEvent;
  if (flow.remaining <= kByteEpsilon) {
    // Zero-byte payload (control message): latency was the whole cost.
    complete(id);
    return;
  }
  flow.injected = true;
  flow.settled_at = engine_.now();
  // Flows inject out of id order (latencies differ): insert in place.
  streaming_.insert(streaming_slot(id), {id, &flow});
  const Change added{*flow.route, +1};
  solve(&added);
}

void Fabric::complete(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  Flow flow = std::move(it->second);
  assert(!flow.injected || flow.due == engine_.now());
  if (flow.injected) streaming_.erase(streaming_slot(id));
  flows_.erase(it);
  prof::free_note(prof::AllocTag::NetFlow, sizeof(Flow));
  ++completed_;
  if (flow.bytes > 0) fcts_.push_back(engine_.now() - flow.started_at);
  delivered_ += flow.bytes;
  if (flow.injected) {
    const Change removed{*flow.route, -1, flow.round};
    solve(&removed);
  }
  if (flow.on_complete) flow.on_complete();
}

void Fabric::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // completed or never existed
  const bool injected = it->second.injected;
  const Change removed{*it->second.route, -1, it->second.round};
  engine_.cancel(it->second.inject_event);
  if (injected) streaming_.erase(streaming_slot(id));
  flows_.erase(it);
  prof::free_note(prof::AllocTag::NetFlow, sizeof(Flow));
  ++cancelled_;
  // Released bandwidth is re-shared immediately.
  if (injected) solve(&removed);
}

void Fabric::set_recorder(trace::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr || !mark_labels_.empty()) return;
  mark_labels_.reserve(2 * static_cast<std::size_t>(topo_.link_count()));
  for (LinkId l = 0; l < topo_.link_count(); ++l) {
    mark_labels_.push_back("net congestion: " + topo_.link(l).name);
    mark_labels_.push_back("net cleared: " + topo_.link(l).name);
  }
}

void Fabric::set_global_fault(double latency_mult, double bandwidth_mult) {
  assert(latency_mult > 0.0 && bandwidth_mult > 0.0);
  latency_mult_ = latency_mult;
  bandwidth_mult_ = bandwidth_mult;
  for (std::size_t sl = 0; sl < capacity_.size(); ++sl) update_capacity(sl);
  solve();
}

void Fabric::degrade_link(LinkId link, double capacity_mult) {
  assert(link >= 0 && link < topo_.link_count());
  assert(capacity_mult > 0.0);
  link_mult_[static_cast<std::size_t>(link)] = capacity_mult;
  update_capacity(static_cast<std::size_t>(link));
  solve();
}

std::size_t Fabric::resume_round(const Change& change) const {
  const std::size_t links = residual_.size();
  // A removed flow freezes in its own round, so that round cannot repeat.
  const std::size_t rounds =
      std::min<std::size_t>(levels_.size(), change.round);
  for (std::size_t m = 0; m < rounds; ++m) {
    const double level = levels_[m];
    const double* residual = &row_residual_[m * links];
    const int* unfrozen = &row_unfrozen_[m * links];
    for (const LinkId l : change.route) {
      const auto sl = static_cast<std::size_t>(l);
      // Step through the round's freezes on this link: each subtracts the
      // level and drops one unfrozen flow. The kept filling counts the
      // flow (`old`) only if it is being removed; the new one (`now`) only
      // if it is being added.
      double r = residual[sl];
      const int last = unfrozen[links + sl];
      for (int old = unfrozen[sl];; --old) {
        const int now = old + change.delta;
        if (old > 0 && !(r / old > level)) return m;
        if (now > 0 && !(r / now > level)) return m;
        if (old == last) break;
        r = std::max(0.0, r - level);
      }
    }
  }
  return rounds;
}

void Fabric::solve(const Change* change) {
  PROF_SCOPE("net.solve");
  const sim::SimTime now = engine_.now();
  ++solver_runs_;
  engine_.cancel(armed_);
  armed_ = sim::kInvalidEvent;

  solver_flows_touched_ += streaming_.size();

  // Progressive filling: repeatedly find the bottleneck link (smallest
  // fair share = residual capacity / unfrozen flows) and freeze its flows
  // at that share. Iterating flows in id order keeps ties deterministic.
  // A link's share is re-divided only when a freeze changes its residual
  // or unfrozen count, with the same operands a fresh division would see.
  const std::size_t links = residual_.size();
  std::size_t m = 0;
  if (change == nullptr || row_residual_.empty()) {
    // Cold: a capacity change, or no filling kept yet.
    residual_ = capacity_;
    std::fill(unfrozen_count_.begin(), unfrozen_count_.end(), 0);
    for (const auto& [id, flow] : streaming_) {
      (void)id;
      for (LinkId l : *flow->route) {
        ++unfrozen_count_[static_cast<std::size_t>(l)];
      }
    }
    levels_.clear();
    row_residual_.clear();
    row_unfrozen_.clear();
  } else {
    // Warm start: rounds before m repeat, so keep them (with the changed
    // route's counts adjusted) and resume from row m.
    m = resume_round(*change);
    std::copy_n(&row_residual_[m * links], links, residual_.begin());
    std::copy_n(&row_unfrozen_[m * links], links, unfrozen_count_.begin());
    levels_.resize(m);
    row_residual_.resize(m * links);
    row_unfrozen_.resize(m * links);
    for (const LinkId l : change->route) {
      const auto sl = static_cast<std::size_t>(l);
      unfrozen_count_[sl] += change->delta;
      for (std::size_t r = 0; r < m; ++r) {
        row_unfrozen_[r * links + sl] += change->delta;
      }
    }
  }
  active_links_.clear();
  for (std::size_t sl = 0; sl < links; ++sl) {
    if (unfrozen_count_[sl] > 0) {
      share_[sl] = residual_[sl] / unfrozen_count_[sl];
      active_links_.push_back(static_cast<LinkId>(sl));
    }
  }
  // Settle: bank the bytes each streaming flow moved at its old rate since
  // its last update; the flows that froze in a kept round keep their rate.
  unfrozen_.clear();
  for (auto& [id, flow] : streaming_) {
    (void)id;
    flow->remaining -= flow->rate * (now - flow->settled_at);
    if (flow->remaining < 0.0) flow->remaining = 0.0;
    flow->settled_at = now;
    if (flow->round < m) continue;
    flow->rate = 0.0;
    unfrozen_.push_back(Unfrozen{flow, *flow->route});
  }
  const auto keep_row = [this] {
    row_residual_.insert(row_residual_.end(), residual_.begin(),
                         residual_.end());
    row_unfrozen_.insert(row_unfrozen_.end(), unfrozen_count_.begin(),
                         unfrozen_count_.end());
  };
  auto round = static_cast<std::uint32_t>(m);
  while (!unfrozen_.empty()) {
    keep_row();
    // The bottleneck share over the links still carrying unfrozen flows,
    // dropping the ones the last round emptied.
    double share = std::numeric_limits<double>::infinity();
    std::size_t live = 0;
    for (const LinkId l : active_links_) {
      const auto sl = static_cast<std::size_t>(l);
      if (unfrozen_count_[sl] == 0) continue;
      active_links_[live++] = l;
      share = std::min(share, share_[sl]);
    }
    active_links_.resize(live);
    assert(std::isfinite(share) && share > 0.0);
    levels_.push_back(share);
    // Freeze every unfrozen flow crossing a link at the bottleneck share;
    // the rest stay in unfrozen_, still in id order.
    std::size_t kept = 0;
    for (const Unfrozen& u : unfrozen_) {
      bool at_bottleneck = false;
      for (LinkId l : u.route) {
        if (share_[static_cast<std::size_t>(l)] <= share) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) {
        unfrozen_[kept++] = u;
        continue;
      }
      u.flow->rate = share;
      u.flow->round = round;
      for (LinkId l : u.route) {
        const auto sl = static_cast<std::size_t>(l);
        residual_[sl] = std::max(0.0, residual_[sl] - share);
        if (--unfrozen_count_[sl] > 0) {
          share_[sl] = residual_[sl] / unfrozen_count_[sl];
        }
      }
    }
    assert(kept < unfrozen_.size() &&
           "progressive filling must freeze a flow per round");
    unfrozen_.resize(kept);
    ++round;
  }
  keep_row();
  solver_rounds_ += round;
  solver_rounds_replayed_ += m;

  // Arm the completion event for the earliest (due, id) flow, and sum
  // each link's load in id order.
  FlowId next = kInvalidFlow;
  sim::SimTime next_due = std::numeric_limits<double>::infinity();
  std::fill(load_.begin(), load_.end(), 0.0);
  std::fill(crossing_.begin(), crossing_.end(), 0);
  for (auto& [id, flow] : streaming_) {
    assert(flow->rate > 0.0);
    const sim::SimTime left =
        flow->remaining <= kByteEpsilon ? 0.0 : flow->remaining / flow->rate;
    flow->due = now + left;
    if (flow->due < next_due) {
      next_due = flow->due;
      next = id;
    }
    for (LinkId l : *flow->route) {
      const auto sl = static_cast<std::size_t>(l);
      load_[sl] += flow->rate;
      ++crossing_[sl];
    }
  }
  if (next != kInvalidFlow) {
    armed_ = engine_.at(next_due, [this, next] {
      armed_ = sim::kInvalidEvent;
      complete(next);
    });
  }

  // Record utilization and congestion transitions.
  for (std::size_t sl = 0; sl < links; ++sl) {
    const LinkId l = static_cast<LinkId>(sl);
    const double util = std::min(1.0, load_[sl] / capacity_[sl]);
    if (util != last_util_[sl]) {
      // The old value survived its instant only if this change is later.
      if (now != util_at_[sl]) {
        peak_util_[sl] = std::max(peak_util_[sl], last_util_[sl]);
      }
      last_util_[sl] = util;
      util_at_[sl] = now;
    }
    const bool congested =
        util >= kCongestionThreshold && crossing_[sl] >= 2;
    if (congested != (congested_[sl] != 0)) {
      congested_[sl] = congested ? 1 : 0;
      if (recorder_ != nullptr) {
        recorder_->mark(now,
                        congested ? trace::MarkKind::NetCongestion
                                  : trace::MarkKind::NetCleared,
                        l, mark_labels_[2 * sl + (congested ? 0 : 1)]);
      }
    }
  }
}

double Fabric::fct_quantile(double q) const {
  if (fcts_.empty()) return 0.0;
  std::vector<double> sorted = fcts_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace tlb::net
