// Virtual MPI: a message-passing layer over the discrete-event engine.
//
// The real system uses MPI both for the application's own communication and
// for the Nanos6 runtime's control messages / data transfers. This layer
// reproduces the semantics that matter for load-balancing studies:
//   - point-to-point messages with (source, tag) matching, wildcards,
//     and per-channel FIFO ordering;
//   - transfer cost latency + bytes/bandwidth between distinct nodes, and a
//     much cheaper shared-memory cost within a node;
//   - a barrier with dissemination-style log2(P) cost.
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
//
// All operations are non-blocking with completion callbacks, which is the
// natural shape inside a discrete-event simulation (there is no thread to
// block).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cluster_spec.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace tlb::net {
class Fabric;
}

namespace tlb::vmpi {

using RankId = int;

/// Wildcard for recv(): match any source rank.
inline constexpr RankId kAnySource = -1;
/// Wildcard for recv(): match any tag.
inline constexpr int kAnyTag = -1;

/// Dynamic perturbation of the interconnect (tlb::fault). The default
/// state is exactly the unfaulted link.
struct LinkFault {
  double latency_mult = 1.0;    ///< multiplies the link latency
  double bandwidth_mult = 1.0;  ///< multiplies the link bandwidth (< 1 = slower)
  sim::SimTime jitter_max = 0.0;  ///< extra per-message delay in [0, jitter_max)
  double loss_rate = 0.0;         ///< probability a transmission attempt is lost
};

/// Retransmission of lost messages: attempt k (0-based) that is lost is
/// retried after kRetryTimeout * kRetryBackoff^k. The last of
/// kRetryMaxAttempts attempts always succeeds (the virtual link is
/// fail-slow, not fail-stop), which bounds the delay a message can suffer
/// and keeps the simulation live.
inline constexpr sim::SimTime kRetryTimeout = 1e-3;
inline constexpr double kRetryBackoff = 2.0;
inline constexpr int kRetryMaxAttempts = 8;

struct Message {
  RankId source = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  sim::SimTime sent_at = 0.0;
  sim::SimTime delivered_at = 0.0;
  std::uint64_t seq = 0;  ///< per-(src,dst)-channel sequence number
  int attempts = 1;       ///< transmission attempts needed (1 = no loss)
};

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

  /// Routes inter-node point-to-point payloads over a shared-link fabric
  /// (tlb::net) instead of the analytic latency + bytes/bandwidth formula:
  /// each message becomes a flow whose bandwidth is shared max-min fairly
  /// with every other in-flight flow. Intra-node messages and the barrier
  /// keep the analytic model. Per-channel FIFO is preserved by
  /// sequence-ordered delivery. With a fabric attached, the LinkFault
  /// latency/bandwidth multipliers must be installed on the *fabric*
  /// (Fabric::set_global_fault) — this layer still draws loss and jitter.
  /// Pass nullptr to detach (restores the analytic model).
  void attach_fabric(net::Fabric* fabric) { fabric_ = fabric; }

  // --- fault injection (tlb::fault) ------------------------------------------

  /// Installs the current link perturbation (latency/bandwidth multipliers,
  /// jitter, loss). A default-constructed LinkFault restores the nominal
  /// link. Intra-node (shared-memory) transfers are never perturbed.
  void set_link_fault(const LinkFault& fault) { fault_ = fault; }

  /// Seeds the RNG used for loss and jitter draws (deterministic runs).
  void set_fault_seed(std::uint64_t seed) { rng_.emplace(seed); }

  /// Transmission attempts that were lost (each triggers a retransmit).
  [[nodiscard]] std::uint64_t messages_lost() const { return lost_count_; }
  /// Retransmissions performed (== messages_lost(): every loss is retried).
  [[nodiscard]] std::uint64_t retransmissions() const { return lost_count_; }

  // --- point-to-point ---------------------------------------------------------

  /// Non-blocking send. `on_delivered` (optional) fires at the sender-side
  /// completion time, which equals the arrival time at the receiver (eager
  /// protocol, as Nanos6 uses for control messages).
  void send(RankId src, RankId dst, int tag, std::uint64_t bytes,
            std::function<void(const Message&)> on_delivered = {});

  /// Non-blocking receive; `cb` fires when a matching message is available
  /// (immediately if one already arrived). `src` may be kAnySource and
  /// `tag` may be kAnyTag.
  void recv(RankId dst, RankId src, int tag,
            std::function<void(const Message&)> cb);

  // --- barrier ----------------------------------------------------------------

  /// Collective barrier: every rank must call once per barrier generation;
  /// all callbacks fire at the same simulated time, arrival-of-last plus a
  /// dissemination cost of ceil(log2 P) network latencies.
  void barrier(RankId rank, std::function<void()> cb);

 private:
  struct PostedRecv {
    RankId src;
    int tag;
    std::function<void(const Message&)> cb;
  };
  struct Mailbox {
    std::deque<Message> unexpected;
    std::deque<PostedRecv> posted;
  };
  struct Held {
    Message msg;
    std::function<void(const Message&)> on_delivered;
  };
  /// Per-(src, dst) ordered-delivery state.
  struct Channel {
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_deliver_seq = 0;
    sim::SimTime last_arrival = 0.0;  ///< FIFO: no overtaking on the wire
    std::map<std::uint64_t, Held> held;  ///< arrived out of order
  };

  /// Schedules transmission attempt `msg.attempts` of `msg`; on loss,
  /// re-schedules itself after the backoff timeout.
  void transmit(RankId dst, Message msg,
                std::function<void(const Message&)> on_delivered);
  /// Arrival at the receiver: enforce sequence order, then hand to match().
  void arrive(RankId dst, Message msg,
              std::function<void(const Message&)> on_delivered);
  void match(RankId dst, const Message& msg);
  [[nodiscard]] Channel& channel(RankId src, RankId dst) {
    return channels_[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(size()) +
                     static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] sim::Rng& rng();
  /// Transfer cost with the active link fault applied (inter-node only).
  [[nodiscard]] sim::SimTime faulted_cost(RankId src, RankId dst,
                                          std::uint64_t bytes);

  [[nodiscard]] static bool matches(const PostedRecv& r, const Message& m) {
    return (r.src == kAnySource || r.src == m.source) &&
           (r.tag == kAnyTag || r.tag == m.tag);
  }
  [[nodiscard]] sim::SimTime barrier_cost() const;

  sim::Engine& engine_;
  sim::LinkSpec link_;
  net::Fabric* fabric_ = nullptr;  ///< non-null = flow-routed payloads
  std::vector<int> rank_to_node_;
  std::vector<Mailbox> mailboxes_;
  std::vector<Channel> channels_;
  LinkFault fault_;
  std::optional<sim::Rng> rng_;
  /// Callbacks of the ranks that reached the current barrier generation.
  std::vector<std::function<void()>> barrier_cbs_;
  std::uint64_t lost_count_ = 0;
};

}  // namespace tlb::vmpi
