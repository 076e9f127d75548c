#include "fault/plan.hpp"

#include <cstdio>
#include <stdexcept>

namespace tlb::fault {

std::string FaultEvent::label() const {
  char buf[96];
  switch (kind) {
    case FaultKind::NodeSlowdown:
      std::snprintf(buf, sizeof buf, "slowdown(node%d,x%.2f)@%.3g", target,
                    factor, at);
      break;
    case FaultKind::LinkDegrade:
      std::snprintf(buf, sizeof buf, "link-degrade(lat x%.2f,bw x%.2f)@%.3g",
                    link.latency_mult, link.bandwidth_mult, at);
      break;
    case FaultKind::MessageLoss:
      std::snprintf(buf, sizeof buf, "message-loss(p=%.2f)@%.3g",
                    link.loss_rate, at);
      break;
    case FaultKind::WorkerCrash:
      std::snprintf(buf, sizeof buf, "crash(worker%d)@%.3g", target, at);
      break;
  }
  return buf;
}

FaultPlan& FaultPlan::slow_node(int node, double factor, sim::SimTime at,
                                sim::SimTime until) {
  FaultEvent ev;
  ev.kind = FaultKind::NodeSlowdown;
  ev.target = node;
  ev.factor = factor;
  ev.at = at;
  ev.until = until;
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::degrade_link(double latency_mult, double bandwidth_mult,
                                   sim::SimTime jitter_max, sim::SimTime at,
                                   sim::SimTime until) {
  FaultEvent ev;
  ev.kind = FaultKind::LinkDegrade;
  ev.link.latency_mult = latency_mult;
  ev.link.bandwidth_mult = bandwidth_mult;
  ev.link.jitter_max = jitter_max;
  ev.at = at;
  ev.until = until;
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::lose_messages(double rate, sim::SimTime at,
                                    sim::SimTime until) {
  FaultEvent ev;
  ev.kind = FaultKind::MessageLoss;
  ev.link.loss_rate = rate;
  ev.at = at;
  ev.until = until;
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::crash_worker(int worker, sim::SimTime at) {
  FaultEvent ev;
  ev.kind = FaultKind::WorkerCrash;
  ev.target = worker;
  ev.at = at;
  events_.push_back(ev);
  return *this;
}

void FaultPlan::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("FaultPlan: " + what);
  };
  for (const FaultEvent& ev : events_) {
    if (ev.at < 0.0) fail("event time is negative");
    if (ev.recovers() && ev.until < ev.at) {
      fail("recovery precedes injection for " + ev.label());
    }
    switch (ev.kind) {
      case FaultKind::NodeSlowdown:
        if (ev.target < 0) fail("slowdown needs a node");
        if (ev.factor <= 0.0) fail("slowdown factor must be positive");
        break;
      case FaultKind::LinkDegrade:
        if (ev.link.latency_mult <= 0.0 || ev.link.bandwidth_mult <= 0.0) {
          fail("link multipliers must be positive");
        }
        if (ev.link.jitter_max < 0.0) fail("jitter must be non-negative");
        break;
      case FaultKind::MessageLoss:
        if (ev.link.loss_rate < 0.0 || ev.link.loss_rate >= 1.0) {
          fail("loss rate must be in [0, 1)");
        }
        break;
      case FaultKind::WorkerCrash:
        if (ev.target < 0) fail("crash needs a worker");
        if (ev.recovers()) fail("crashes are fail-stop (no recovery)");
        break;
    }
  }
}

}  // namespace tlb::fault
