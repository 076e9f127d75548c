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
  util_series_.resize(links);
  last_util_.assign(links, 0.0);
  congested_.assign(links, 0);
  link_fill_.resize(links);
}

Fabric::~Fabric() {
  // Flows still in flight at teardown: release their net.flow charge so
  // the allocation accounting balances to zero (charged in start_flow,
  // normally released in complete()/cancel()).
  if (prof::enabled() && !flows_.empty()) {
    prof::free_note(prof::AllocTag::NetFlow, flows_.size() * sizeof(Flow));
  }
}

double Fabric::effective_capacity(LinkId link) const {
  return topo_.link(link).capacity * bandwidth_mult_ *
         link_mult_[static_cast<std::size_t>(link)];
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
  solve();
}

void Fabric::complete(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  Flow flow = std::move(it->second);
  assert(!flow.injected || flow.due == engine_.now());
  flows_.erase(it);
  prof::free_note(prof::AllocTag::NetFlow, sizeof(Flow));
  ++completed_;
  if (flow.bytes > 0) fcts_.push_back(engine_.now() - flow.started_at);
  delivered_ += flow.bytes;
  if (flow.injected) solve();
  if (flow.on_complete) flow.on_complete();
}

void Fabric::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // completed or never existed
  const bool injected = it->second.injected;
  engine_.cancel(it->second.inject_event);
  flows_.erase(it);
  prof::free_note(prof::AllocTag::NetFlow, sizeof(Flow));
  ++cancelled_;
  // Released bandwidth is re-shared immediately.
  if (injected) solve();
}

void Fabric::set_global_fault(double latency_mult, double bandwidth_mult) {
  assert(latency_mult > 0.0 && bandwidth_mult > 0.0);
  latency_mult_ = latency_mult;
  bandwidth_mult_ = bandwidth_mult;
  solve();
}

void Fabric::degrade_link(LinkId link, double capacity_mult) {
  assert(link >= 0 && link < topo_.link_count());
  assert(capacity_mult > 0.0);
  link_mult_[static_cast<std::size_t>(link)] = capacity_mult;
  solve();
}

void Fabric::solve() {
  PROF_SCOPE("net.solve");
  const sim::SimTime now = engine_.now();
  ++solver_runs_;
  engine_.cancel(armed_);
  armed_ = sim::kInvalidEvent;

  // 1. Settle: bank the bytes each streaming flow moved since its last
  // update.
  streaming_.clear();
  for (auto& [id, flow] : flows_) {
    if (!flow.injected) continue;
    flow.remaining -= flow.rate * (now - flow.settled_at);
    if (flow.remaining < 0.0) flow.remaining = 0.0;
    flow.settled_at = now;
    streaming_.emplace_back(id, &flow);
  }
  solver_flows_touched_ += streaming_.size();
  solver_links_touched_ += link_fill_.size();

  // 2. Progressive filling: repeatedly find the bottleneck link (smallest
  // fair share = residual capacity / unfrozen flows) and freeze its flows
  // at that share. Iterating flows in id order keeps ties deterministic.
  // A link's share is re-divided only when a freeze changes its residual
  // or unfrozen count, with the same operands a fresh division would see.
  for (std::size_t sl = 0; sl < link_fill_.size(); ++sl) {
    LinkFill& ls = link_fill_[sl];
    ls = LinkFill{};
    ls.residual = effective_capacity(static_cast<LinkId>(sl));
  }
  unfrozen_.clear();
  for (auto& [id, flow] : streaming_) {
    (void)id;
    flow->rate = 0.0;
    unfrozen_.push_back(Unfrozen{flow, *flow->route});
    for (LinkId l : *flow->route) {
      ++link_fill_[static_cast<std::size_t>(l)].unfrozen;
    }
  }
  for (LinkFill& ls : link_fill_) {
    if (ls.unfrozen > 0) ls.share = ls.residual / ls.unfrozen;
  }
  while (!unfrozen_.empty()) {
    double share = std::numeric_limits<double>::infinity();
    for (const LinkFill& ls : link_fill_) {
      if (ls.unfrozen > 0) share = std::min(share, ls.share);
    }
    assert(std::isfinite(share) && share > 0.0);
    // Freeze every unfrozen flow crossing a link at the bottleneck share;
    // the rest stay in unfrozen_, still in id order.
    std::size_t kept = 0;
    for (const Unfrozen& u : unfrozen_) {
      bool at_bottleneck = false;
      for (LinkId l : u.route) {
        if (link_fill_[static_cast<std::size_t>(l)].share <= share) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) {
        unfrozen_[kept++] = u;
        continue;
      }
      u.flow->rate = share;
      for (LinkId l : u.route) {
        LinkFill& ls = link_fill_[static_cast<std::size_t>(l)];
        ls.residual = std::max(0.0, ls.residual - share);
        if (--ls.unfrozen > 0) ls.share = ls.residual / ls.unfrozen;
      }
    }
    assert(kept < unfrozen_.size() &&
           "progressive filling must freeze a flow per round");
    unfrozen_.resize(kept);
  }

  // 3. Arm the completion event for the earliest (due, id) flow.
  FlowId next = kInvalidFlow;
  sim::SimTime next_due = std::numeric_limits<double>::infinity();
  for (auto& [id, flow] : streaming_) {
    assert(flow->rate > 0.0);
    const sim::SimTime left =
        flow->remaining <= kByteEpsilon ? 0.0 : flow->remaining / flow->rate;
    flow->due = now + left;
    if (flow->due < next_due) {
      next_due = flow->due;
      next = id;
    }
  }
  if (next != kInvalidFlow) {
    armed_ = engine_.at(next_due, [this, next] {
      armed_ = sim::kInvalidEvent;
      complete(next);
    });
  }

  // 4. Record utilization and congestion transitions.
  for (const auto& [id, flow] : streaming_) {
    (void)id;
    for (LinkId l : *flow->route) {
      LinkFill& ls = link_fill_[static_cast<std::size_t>(l)];
      ls.load += flow->rate;
      ++ls.crossing;
    }
  }
  for (std::size_t sl = 0; sl < link_fill_.size(); ++sl) {
    const LinkId l = static_cast<LinkId>(sl);
    const double util =
        std::min(1.0, link_fill_[sl].load / effective_capacity(l));
    if (util != last_util_[sl]) {
      util_series_[sl].set(now, util);
      last_util_[sl] = util;
    }
    const bool congested =
        util >= kCongestionThreshold && link_fill_[sl].crossing >= 2;
    if (congested != (congested_[sl] != 0)) {
      congested_[sl] = congested ? 1 : 0;
      if (recorder_ != nullptr) {
        recorder_->mark(now,
                        congested ? trace::MarkKind::NetCongestion
                                  : trace::MarkKind::NetCleared,
                        l,
                        (congested ? "net congestion: " : "net cleared: ") +
                            topo_.link(l).name);
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
