// Virtual MPI: the runtime's control-plane link over the discrete-event
// engine.
//
// In the real system Nanos6 sends its control messages (task offloads,
// completions, heartbeats, acknowledgments) over MPI. This layer carries
// them, one rank per worker process, and reproduces what matters for
// load-balancing studies:
//   - point-to-point delivery with per-channel FIFO ordering: a callback
//     fires at the simulated arrival time;
//   - transfer cost latency + bytes/bandwidth between distinct nodes, and a
//     much cheaper shared-memory cost within a node;
//   - optionally, inter-node payloads routed as flows over a shared-link
//     fabric (tlb::net).
// The application's own iteration-boundary exchange is modelled by the
// runtime as a barrier (core::ClusterRuntime::enter_barrier).
//
// Fault model (tlb::fault): the link can be perturbed at runtime with a
// LinkFault — latency/bandwidth multipliers, per-message delay jitter, and
// a transmission loss rate. Lost transmissions are recovered by a timeout +
// exponential-backoff retransmit path; per-channel FIFO is preserved across
// retransmits by sequence-ordered delivery (a message that arrives while an
// earlier one of the same channel is still being retransmitted is held back
// until the earlier one lands). With a default-constructed LinkFault the
// layer is bit-identical to the unfaulted one: no RNG is consulted and the
// cost arithmetic is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "sim/cluster_spec.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace tlb::net {
class Fabric;
}

namespace tlb::vmpi {

using RankId = int;

/// Dynamic perturbation of the interconnect (tlb::fault). The default
/// state is exactly the unfaulted link.
struct LinkFault {
  double latency_mult = 1.0;    ///< multiplies the link latency
  double bandwidth_mult = 1.0;  ///< multiplies the link bandwidth (< 1 = slower)
  sim::SimTime jitter_max = 0.0;  ///< extra per-message delay in [0, jitter_max)
  double loss_rate = 0.0;         ///< probability a transmission attempt is lost
};

/// Inter-node transfer time of `bytes` over `link` perturbed by `fault`:
/// latency * latency_mult + bytes / (bandwidth * bandwidth_mult), plus one
/// uniform draw in [0, jitter_max) from `rng` when the fault has jitter.
/// With a default LinkFault this is exactly the nominal link model and
/// draws nothing.
[[nodiscard]] sim::SimTime faulted_link_time(const sim::LinkSpec& link,
                                             const LinkFault& fault,
                                             std::uint64_t bytes,
                                             sim::Rng& rng);

/// Retransmission of lost messages: attempt k (0-based) that is lost is
/// retried after kRetryTimeout * kRetryBackoff^k. The last of
/// kRetryMaxAttempts attempts always succeeds (the virtual link is
/// fail-slow, not fail-stop), which bounds the delay a message can suffer
/// and keeps the simulation live.
inline constexpr sim::SimTime kRetryTimeout = 1e-3;
inline constexpr double kRetryBackoff = 2.0;
inline constexpr int kRetryMaxAttempts = 8;

class Communicator {
 public:
  /// `rank_to_node[r]` is the node hosting rank r; used to price transfers.
  Communicator(sim::Engine& engine, sim::LinkSpec link,
               std::vector<int> rank_to_node);

  [[nodiscard]] int size() const {
    return static_cast<int>(rank_to_node_.size());
  }

  /// Adds a rank hosted on `node` mid-run (expander rewire after a crash).
  /// Existing channel state — sequence numbers, in-flight FIFO deadlines,
  /// held out-of-order messages — is preserved. Returns the new rank id.
  RankId add_rank(int node);

  [[nodiscard]] int node_of(RankId r) const {
    return rank_to_node_.at(static_cast<std::size_t>(r));
  }

  /// Routes inter-node payloads over a shared-link fabric (tlb::net)
  /// instead of the analytic latency + bytes/bandwidth formula: each
  /// message becomes a flow whose bandwidth is shared max-min fairly with
  /// every other in-flight flow. Intra-node messages keep the analytic
  /// model. Per-channel FIFO is preserved by sequence-ordered delivery.
  /// With a fabric attached, the LinkFault latency/bandwidth multipliers
  /// must be installed on the *fabric* (Fabric::set_global_fault) — this
  /// layer still draws loss and jitter. Pass nullptr to detach (restores
  /// the analytic model).
  void attach_fabric(net::Fabric* fabric) { fabric_ = fabric; }

  // --- fault injection (tlb::fault) ------------------------------------------

  /// Installs the current link perturbation (latency/bandwidth multipliers,
  /// jitter, loss). A default-constructed LinkFault restores the nominal
  /// link. Intra-node (shared-memory) transfers are never perturbed.
  void set_link_fault(const LinkFault& fault) { fault_ = fault; }

  /// Seeds the RNG used for loss and jitter draws (deterministic runs).
  void set_fault_seed(std::uint64_t seed) { rng_.emplace(seed); }

  /// Transmission attempts that were lost; each one was retransmitted.
  [[nodiscard]] std::uint64_t messages_lost() const { return lost_count_; }

  /// Non-blocking send of `bytes` from `src` to `dst`. `on_delivered`
  /// fires at the arrival time at the receiver, after every earlier
  /// message of the same (src, dst) channel (eager protocol, as Nanos6
  /// uses for control messages).
  void send(RankId src, RankId dst, std::uint64_t bytes,
            std::function<void()> on_delivered);

 private:
  /// One message in flight or held for in-order delivery.
  struct Message {
    RankId src = 0;
    RankId dst = 0;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;  ///< per-(src, dst)-channel sequence number
    int attempts = 1;       ///< transmission attempts so far
    std::function<void()> on_delivered;
  };
  /// Per-(src, dst) ordered-delivery state.
  struct Channel {
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_deliver_seq = 0;
    sim::SimTime last_arrival = 0.0;  ///< FIFO: no overtaking on the wire
    std::map<std::uint64_t, Message> held;  ///< arrived out of order
  };

  /// Schedules transmission attempt `msg.attempts` of `msg`; on loss,
  /// re-schedules itself after the backoff timeout.
  void transmit(Message msg);
  /// Arrival at the receiver: deliver in sequence order.
  void arrive(Message msg);
  [[nodiscard]] Channel& channel(RankId src, RankId dst) {
    return channels_[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(size()) +
                     static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] sim::Rng& rng();

  sim::Engine& engine_;
  sim::LinkSpec link_;
  net::Fabric* fabric_ = nullptr;  ///< non-null = flow-routed payloads
  std::vector<int> rank_to_node_;
  std::vector<Channel> channels_;
  LinkFault fault_;
  std::optional<sim::Rng> rng_;
  std::uint64_t lost_count_ = 0;
};

}  // namespace tlb::vmpi
