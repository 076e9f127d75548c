// Flow-level interconnect fabric with max-min fair bandwidth sharing.
//
// A Fabric simulates payload transfers as *flows* over the shared links of
// a NetTopology. Active flows crossing a link divide its capacity max-min
// fairly (progressive filling): rates are recomputed by one full solve on
// every flow start, finish, cancellation, and fault change. A flow first
// pays the route's wire latency, then streams its bytes at the fair rate.
//
// One armed completion event: each solve stores on every streaming flow
// the instant it would finish at its new rate (`due`), cancels the
// fabric's single pending completion event, and arms a new one for the
// earliest (due, flow id). When it fires, that one flow completes and the
// completion's re-solve arms the next. This is order-equivalent to
// scheduling one completion event per flow: since every completion
// re-solves and every solve would cancel and re-post all of them, only
// the earliest (time, id) event of each solve's batch could ever fire,
// and the armed event is pushed at that batch's point in the push
// sequence, so it pops in the same place relative to every other event.
// Fired-event counts and solve counts match event for event.
//
// Determinism: flows are stored and iterated in flow-id order, routing is
// a pure function of the topology, and the fair-share computation is
// plain floating-point arithmetic — no RNG, no address-dependent
// iteration. Two runs that start the same flows at the same times observe
// identical rates and completion times.
//
// Fault composition (tlb::fault): a global LinkFault maps onto the fabric
// as set_global_fault() — latency_mult scales the wire latency of flows
// started while active, bandwidth_mult scales every link's capacity (all
// in-flight flows immediately re-share the reduced fabric). Individual
// physical links can additionally be degraded with degrade_link(), which
// slows exactly the flows whose routes cross them.
//
// Observability: per-link current and peak utilization, flow-completion-time
// samples with quantiles (p50/p99), and — when a trace::Recorder is
// attached — timeline marks at the instants a link becomes congested
// (utilization >= threshold with >= 2 competing flows) and clears.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "trace/recorder.hpp"

namespace tlb::net {

using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

class Fabric {
 public:
  Fabric(sim::Engine& engine, NetTopology topology);
  ~Fabric();

  [[nodiscard]] const NetTopology& topology() const { return topo_; }

  /// Starts a transfer of `bytes` from `src` to `dst`: after the route's
  /// wire latency (times the global latency multiplier, plus
  /// `extra_latency` — per-message jitter) the payload enters the fabric
  /// and streams at the max-min fair rate; `on_complete` fires when the
  /// last byte arrives. Zero-byte transfers complete at latency cost
  /// alone. `src == dst` is not a fabric transfer (asserts).
  FlowId start_flow(NodeId src, NodeId dst, std::uint64_t bytes,
                    std::function<void()> on_complete,
                    sim::SimTime extra_latency = 0.0);

  /// Tears down an in-flight flow: its bandwidth is released to the
  /// remaining flows and its completion callback never fires. No-op for
  /// completed/unknown ids (idempotent).
  void cancel(FlowId id);

  /// True while the flow is in latency or streaming its bytes.
  [[nodiscard]] bool active(FlowId id) const { return flows_.count(id) != 0; }
  [[nodiscard]] int active_flows() const {
    return static_cast<int>(flows_.size());
  }

  // --- fault composition (tlb::fault) ----------------------------------------

  /// Applies a cluster-wide LinkFault to the fabric. Multipliers of 1.0
  /// restore the nominal fabric.
  void set_global_fault(double latency_mult, double bandwidth_mult);

  /// Degrades one physical link's capacity (0 < mult; 1.0 restores).
  /// Every flow whose route crosses the link immediately slows down.
  void degrade_link(LinkId link, double capacity_mult);

  /// Current max-min fair rate of a flow in bytes/s; 0 for unknown,
  /// completed, or latency-phase flows.
  [[nodiscard]] double flow_rate(FlowId id) const;

  /// Current effective capacity of a link (nominal x global x per-link).
  [[nodiscard]] double effective_capacity(LinkId link) const;

  // --- observability -----------------------------------------------------------

  /// Highest utilization (load / effective capacity, in [0, 1]) a link
  /// held at the end of any simulated instant so far. A value that a later
  /// recomputation at the same instant overwrote never counts.
  [[nodiscard]] double peak_utilization(LinkId link) const {
    const auto l = static_cast<std::size_t>(link);
    return std::max(peak_util_.at(l), last_util_.at(l));
  }
  /// Utilization of a link as of the last rate recomputation (the live
  /// congestion signal consumed by net::LinkLoadView / tlb::sched).
  [[nodiscard]] double current_utilization(LinkId link) const {
    return last_util_.at(static_cast<std::size_t>(link));
  }

  /// Completion times (latency + streaming, seconds) of finished *payload*
  /// flows (bytes > 0), in completion order. Zero-byte control messages
  /// complete at pure latency and are excluded so the distribution
  /// describes data-transfer performance.
  [[nodiscard]] const std::vector<double>& completion_times() const {
    return fcts_;
  }
  /// Quantile of the flow-completion-time distribution (q in [0, 1]);
  /// 0 when no payload flow has completed. fct_quantile(0.5) is the
  /// median, fct_quantile(0.99) the congestion tail.
  [[nodiscard]] double fct_quantile(double q) const;

  [[nodiscard]] std::uint64_t flows_started() const { return started_; }
  [[nodiscard]] std::uint64_t flows_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t flows_cancelled() const { return cancelled_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const { return delivered_; }

  /// Solver work counters: number of solves run and the flows/links each
  /// visited, summed.
  [[nodiscard]] std::uint64_t solver_runs() const { return solver_runs_; }
  [[nodiscard]] std::uint64_t solver_flows_touched() const {
    return solver_flows_touched_;
  }
  [[nodiscard]] std::uint64_t solver_links_touched() const {
    return solver_links_touched_;
  }

  /// A link whose utilization reaches this fraction of capacity while
  /// carrying at least two flows is marked congested in the trace.
  static constexpr double kCongestionThreshold = 0.95;

  /// Attaches a recorder that receives "net congestion"/"net cleared"
  /// timeline marks for links crossing kCongestionThreshold.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

 private:
  struct Flow {
    const std::vector<LinkId>* route = nullptr;  ///< owned by topo_
    double remaining = 0.0;       ///< bytes left to stream
    std::uint64_t bytes = 0;      ///< original payload
    double rate = 0.0;            ///< current fair share, bytes/s
    sim::SimTime started_at = 0.0;  ///< start_flow() time (FCT epoch)
    sim::SimTime settled_at = 0.0;  ///< remaining is exact at this time
    sim::SimTime due = 0.0;         ///< completion instant at `rate`
    bool injected = false;          ///< past the latency phase
    std::function<void()> on_complete;
    sim::EventId inject_event = sim::kInvalidEvent;  ///< latency phase
  };
  /// A streaming flow not yet frozen by the current filling, with its
  /// route inlined for the per-round bottleneck scan.
  struct Unfrozen {
    Flow* flow;
    std::span<const LinkId> route;
  };
  /// Per-link state of one progressive filling, reused across solves.
  struct LinkFill {
    double residual = 0.0;  ///< capacity not yet handed to frozen flows
    double share = 0.0;     ///< residual / unfrozen, while unfrozen > 0
    double load = 0.0;      ///< summed rates of crossing flows
    int unfrozen = 0;       ///< crossing flows not yet frozen
    int crossing = 0;       ///< crossing flows
  };

  void inject(FlowId id);
  void complete(FlowId id);
  /// Settles every streaming flow's remaining bytes to now, recomputes
  /// max-min fair rates, re-arms the completion event, records
  /// utilization.
  void solve();

  sim::Engine& engine_;
  NetTopology topo_;
  std::map<FlowId, Flow> flows_;  ///< id order => deterministic iteration
  FlowId next_id_ = 1;
  /// The one pending completion event: the earliest (due, id) flow.
  sim::EventId armed_ = sim::kInvalidEvent;
  // solve() working state: streaming flows in id order, the still-unfrozen
  // subset (kept in id order), and per-link filling state.
  std::vector<std::pair<FlowId, Flow*>> streaming_;
  std::vector<Unfrozen> unfrozen_;
  std::vector<LinkFill> link_fill_;
  std::uint64_t solver_runs_ = 0;
  std::uint64_t solver_flows_touched_ = 0;
  std::uint64_t solver_links_touched_ = 0;
  double latency_mult_ = 1.0;
  double bandwidth_mult_ = 1.0;
  std::vector<double> link_mult_;      ///< per-link degradation
  std::vector<double> last_util_;
  /// Per link: the time last_util_ was last changed, and the peak over the
  /// values it held at the end of earlier instants (see peak_utilization).
  std::vector<sim::SimTime> util_at_;
  std::vector<double> peak_util_;
  std::vector<char> congested_;
  trace::Recorder* recorder_ = nullptr;
  std::vector<double> fcts_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace tlb::net
