#include "vmpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/fabric.hpp"

namespace tlb::vmpi {

namespace {
int ceil_log2(int p) {
  int r = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    ++r;
  }
  return r;
}
}  // namespace

Communicator::Communicator(sim::Engine& engine, sim::LinkSpec link,
                           std::vector<int> rank_to_node)
    : engine_(engine), link_(link), rank_to_node_(std::move(rank_to_node)) {
  assert(!rank_to_node_.empty());
  mailboxes_.resize(rank_to_node_.size());
  channels_.resize(rank_to_node_.size() * rank_to_node_.size());
}

RankId Communicator::add_rank(int node) {
  const int old_size = size();
  rank_to_node_.push_back(node);
  mailboxes_.emplace_back();
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

sim::SimTime Communicator::faulted_cost(RankId src, RankId dst,
                                        std::uint64_t bytes) {
  if (node_of(src) == node_of(dst)) {
    // Shared memory: unaffected by interconnect faults.
    return link_.shm_transfer_time(bytes);
  }
  sim::SimTime cost =
      link_.latency * fault_.latency_mult +
      static_cast<double>(bytes) / (link_.bandwidth * fault_.bandwidth_mult);
  if (fault_.jitter_max > 0.0) cost += rng().uniform(0.0, fault_.jitter_max);
  return cost;
}

void Communicator::send(RankId src, RankId dst, int tag, std::uint64_t bytes,
                        std::function<void(const Message&)> on_delivered) {
  assert(src >= 0 && src < size() && dst >= 0 && dst < size());

  Message msg;
  msg.source = src;
  msg.tag = tag;
  msg.bytes = bytes;
  msg.sent_at = engine_.now();
  msg.seq = channel(src, dst).next_send_seq++;
  msg.attempts = 1;
  transmit(dst, std::move(msg), std::move(on_delivered));
}

void Communicator::transmit(RankId dst, Message msg,
                            std::function<void(const Message&)> on_delivered) {
  const bool inter_node = node_of(msg.source) != node_of(dst);
  const bool may_lose = inter_node && fault_.loss_rate > 0.0 &&
                        msg.attempts < kRetryMaxAttempts;
  if (may_lose && rng().uniform(0.0, 1.0) < fault_.loss_rate) {
    // Lost on the wire: the sender times out and retransmits with
    // exponential backoff (attempt k is retried after timeout*backoff^k).
    ++lost_count_;
    const sim::SimTime wait =
        kRetryTimeout * std::pow(kRetryBackoff, msg.attempts - 1);
    msg.attempts += 1;
    engine_.after(wait, [this, dst, msg = std::move(msg),
                         cb = std::move(on_delivered)]() mutable {
      transmit(dst, std::move(msg), std::move(cb));
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
    const int src_node = node_of(msg.source);
    const int dst_node = node_of(dst);
    const std::uint64_t bytes = msg.bytes;
    fabric_->start_flow(
        src_node, dst_node, bytes,
        [this, dst, msg = std::move(msg),
         cb = std::move(on_delivered)]() mutable {
          arrive(dst, std::move(msg), std::move(cb));
        },
        jitter);
    return;
  }

  sim::SimTime arrival =
      engine_.now() + faulted_cost(msg.source, dst, msg.bytes);
  // Per-channel FIFO on the wire: a later (smaller) message may not overtake
  // an earlier (larger) one on the same channel. Out-of-order arrivals that
  // loss still produces are re-ordered at the receiver (arrive()).
  auto& ch = channel(msg.source, dst);
  arrival = std::max(arrival, ch.last_arrival);
  ch.last_arrival = arrival;

  engine_.at(arrival, [this, dst, msg = std::move(msg),
                       cb = std::move(on_delivered)]() mutable {
    arrive(dst, std::move(msg), std::move(cb));
  });
}

void Communicator::arrive(RankId dst, Message msg,
                          std::function<void(const Message&)> on_delivered) {
  Channel& ch = channel(msg.source, dst);
  if (msg.seq != ch.next_deliver_seq) {
    // A predecessor on this channel is still in flight (being
    // retransmitted): hold this message to preserve FIFO.
    assert(msg.seq > ch.next_deliver_seq && "duplicate delivery");
    ch.held.emplace(msg.seq, Held{std::move(msg), std::move(on_delivered)});
    return;
  }
  msg.delivered_at = engine_.now();
  ++ch.next_deliver_seq;
  match(dst, msg);
  if (on_delivered) on_delivered(msg);
  // Release any held successors that are now in order.
  while (true) {
    auto it = ch.held.find(ch.next_deliver_seq);
    if (it == ch.held.end()) break;
    Held h = std::move(it->second);
    ch.held.erase(it);
    h.msg.delivered_at = engine_.now();
    ++ch.next_deliver_seq;
    match(dst, h.msg);
    if (h.on_delivered) h.on_delivered(h.msg);
  }
}

void Communicator::match(RankId dst, const Message& msg) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
    if (matches(*it, msg)) {
      auto cb = std::move(it->cb);
      box.posted.erase(it);
      cb(msg);
      return;
    }
  }
  box.unexpected.push_back(msg);
}

void Communicator::recv(RankId dst, RankId src, int tag,
                        std::function<void(const Message&)> cb) {
  assert(dst >= 0 && dst < size());
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  PostedRecv pr{src, tag, std::move(cb)};
  for (auto it = box.unexpected.begin(); it != box.unexpected.end(); ++it) {
    if (matches(pr, *it)) {
      Message msg = *it;
      box.unexpected.erase(it);
      pr.cb(msg);
      return;
    }
  }
  box.posted.push_back(std::move(pr));
}

sim::SimTime Communicator::barrier_cost() const {
  return link_.latency * fault_.latency_mult *
         static_cast<double>(ceil_log2(size()));
}

void Communicator::barrier(RankId rank, std::function<void()> cb) {
  assert(rank >= 0 && rank < size());
  (void)rank;
  barrier_cbs_.push_back(std::move(cb));
  if (static_cast<int>(barrier_cbs_.size()) == size()) {
    engine_.after(barrier_cost(), [cbs = std::move(barrier_cbs_)]() {
      for (const auto& f : cbs) f();
    });
    barrier_cbs_.clear();
  }
}

}  // namespace tlb::vmpi
