#include "fault/injector.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tlb::fault {

namespace {

bool is_link_kind(FaultKind kind) {
  return kind == FaultKind::LinkDegrade || kind == FaultKind::MessageLoss;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultInjector::attach(core::ClusterRuntime& rt) {
  plan_.validate();
  const auto& events = plan_.events();
  active_.assign(events.size(), 0);
  saved_speed_.assign(events.size(), 1.0);

  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    rt.schedule_external(ev.at, [this, &rt, i] { activate(rt, i); });
    if (ev.recovers()) {
      rt.schedule_external(ev.until, [this, &rt, i] { recover(rt, i); });
    }
  }
}

void FaultInjector::activate(core::ClusterRuntime& rt, std::size_t i) {
  const FaultEvent& ev = plan_.events()[i];
  active_[i] = 1;
  switch (ev.kind) {
    case FaultKind::NodeSlowdown:
      saved_speed_[i] = rt.node_speed(ev.target);
      rt.set_node_speed(ev.target, saved_speed_[i] * ev.factor);
      break;
    case FaultKind::LinkDegrade:
    case FaultKind::MessageLoss:
      apply_link(rt);
      break;
    case FaultKind::WorkerCrash:
      rt.crash_worker(ev.target);
      break;
  }
  rt.mark_trace(ev.label(), trace::MarkKind::FaultInjected, ev.target);
}

void FaultInjector::recover(core::ClusterRuntime& rt, std::size_t i) {
  const FaultEvent& ev = plan_.events()[i];
  assert(active_[i] && "recovery fired before injection");
  active_[i] = 0;
  switch (ev.kind) {
    case FaultKind::NodeSlowdown:
      // Restore the exact pre-injection speed (overlapping slowdowns of
      // the same node resolve to whichever recovery runs last).
      rt.set_node_speed(ev.target, saved_speed_[i]);
      break;
    case FaultKind::LinkDegrade:
    case FaultKind::MessageLoss:
      apply_link(rt);
      break;
    case FaultKind::WorkerCrash:
      assert(false && "crashes do not recover");
      break;
  }
  rt.mark_trace(ev.label() + " recovered");
}

void FaultInjector::apply_link(core::ClusterRuntime& rt) const {
  vmpi::LinkFault composed;
  double pass_through = 1.0;  // probability a message survives every fault
  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!active_[i] || !is_link_kind(events[i].kind)) continue;
    const vmpi::LinkFault& f = events[i].link;
    composed.latency_mult *= f.latency_mult;
    composed.bandwidth_mult *= f.bandwidth_mult;
    composed.jitter_max = std::max(composed.jitter_max, f.jitter_max);
    pass_through *= 1.0 - f.loss_rate;
  }
  composed.loss_rate = 1.0 - pass_through;
  rt.set_link_fault(composed);
}

}  // namespace tlb::fault
