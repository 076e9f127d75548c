#include "vmpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "net/fabric.hpp"

namespace tlb::vmpi {

sim::SimTime faulted_link_time(const sim::LinkSpec& link,
                               const LinkFault& fault, std::uint64_t bytes,
                               sim::Rng& rng) {
  sim::SimTime t =
      link.latency * fault.latency_mult +
      static_cast<double>(bytes) / (link.bandwidth * fault.bandwidth_mult);
  if (fault.jitter_max > 0.0) t += rng.uniform(0.0, fault.jitter_max);
  return t;
}

Communicator::Communicator(sim::Engine& engine, sim::LinkSpec link,
                           std::vector<int> rank_to_node)
    : engine_(engine), link_(link), rank_to_node_(std::move(rank_to_node)) {
  assert(!rank_to_node_.empty());
  channels_.resize(rank_to_node_.size() * rank_to_node_.size());
}

RankId Communicator::add_rank(int node) {
  const int old_size = size();
  rank_to_node_.push_back(node);
  // channels_ is indexed src * size + dst; re-pack the old N x N table into
  // the new (N+1) x (N+1) layout so in-flight sequence state survives.
  const std::size_t n = static_cast<std::size_t>(old_size);
  std::vector<Channel> grown((n + 1) * (n + 1));
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      grown[src * (n + 1) + dst] = std::move(channels_[src * n + dst]);
    }
  }
  channels_ = std::move(grown);
  return old_size;
}

sim::Rng& Communicator::rng() {
  if (!rng_) rng_.emplace(sim::Rng(0x5EEDu));
  return *rng_;
}

void Communicator::send(RankId src, RankId dst, std::uint64_t bytes,
                        std::function<void()> on_delivered) {
  assert(src >= 0 && src < size() && dst >= 0 && dst < size());
  assert(on_delivered);
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.bytes = bytes;
  msg.seq = channel(src, dst).next_send_seq++;
  msg.on_delivered = std::move(on_delivered);
  transmit(std::move(msg));
}

void Communicator::transmit(Message msg) {
  const bool inter_node = node_of(msg.src) != node_of(msg.dst);
  const bool may_lose = inter_node && fault_.loss_rate > 0.0 &&
                        msg.attempts < kRetryMaxAttempts;
  if (may_lose && rng().uniform(0.0, 1.0) < fault_.loss_rate) {
    // Lost on the wire: the sender times out and retransmits with
    // exponential backoff (attempt k is retried after timeout*backoff^k).
    ++lost_count_;
    const sim::SimTime wait =
        kRetryTimeout * std::pow(kRetryBackoff, msg.attempts - 1);
    msg.attempts += 1;
    engine_.after(wait, [this, msg = std::move(msg)]() mutable {
      transmit(std::move(msg));
    });
    return;
  }

  if (fabric_ != nullptr && inter_node) {
    // Flow mode (tlb::net): wire latency plus per-message jitter up front,
    // then the payload streams over shared links at the max-min fair rate.
    // The arrival instant is load-dependent and unknowable here, so FIFO
    // is enforced purely by sequence-ordered delivery in arrive().
    sim::SimTime jitter = 0.0;
    if (fault_.jitter_max > 0.0) jitter = rng().uniform(0.0, fault_.jitter_max);
    const int src_node = node_of(msg.src);
    const int dst_node = node_of(msg.dst);
    const std::uint64_t bytes = msg.bytes;
    fabric_->start_flow(
        src_node, dst_node, bytes,
        [this, msg = std::move(msg)]() mutable { arrive(std::move(msg)); },
        jitter);
    return;
  }

  // Shared memory is unaffected by interconnect faults.
  sim::SimTime arrival =
      engine_.now() + (inter_node ? faulted_link_time(link_, fault_,
                                                      msg.bytes, rng())
                                  : link_.shm_transfer_time(msg.bytes));
  // Per-channel FIFO on the wire: a later (smaller) message may not overtake
  // an earlier (larger) one on the same channel. Out-of-order arrivals that
  // loss still produces are re-ordered at the receiver (arrive()).
  Channel& ch = channel(msg.src, msg.dst);
  arrival = std::max(arrival, ch.last_arrival);
  ch.last_arrival = arrival;
  engine_.at(arrival, [this, msg = std::move(msg)]() mutable {
    arrive(std::move(msg));
  });
}

void Communicator::arrive(Message msg) {
  Channel& ch = channel(msg.src, msg.dst);
  if (msg.seq != ch.next_deliver_seq) {
    // A predecessor on this channel is still in flight (being
    // retransmitted): hold this message to preserve FIFO.
    assert(msg.seq > ch.next_deliver_seq && "duplicate delivery");
    ch.held.emplace(msg.seq, std::move(msg));
    return;
  }
  ++ch.next_deliver_seq;
  msg.on_delivered();
  // Release any held successors that are now in order.
  while (true) {
    auto it = ch.held.find(ch.next_deliver_seq);
    if (it == ch.held.end()) break;
    Message next = std::move(it->second);
    ch.held.erase(it);
    ++ch.next_deliver_seq;
    next.on_delivered();
  }
}

}  // namespace tlb::vmpi
