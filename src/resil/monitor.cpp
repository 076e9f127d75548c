#include "resil/monitor.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "prof/prof.hpp"

namespace tlb::resil {

Monitor::Monitor(sim::Engine& engine, vmpi::Communicator& ctrl, Host& host,
                 int workers)
    : engine_(engine),
      ctrl_(ctrl),
      host_(host),
      peers_(static_cast<std::size_t>(workers)),
      quarantine_(workers) {}

void Monitor::start() {
  constexpr sim::SimTime period = kHeartbeatPeriod;
  static_assert(period > 0.0);
  const int workers = static_cast<int>(peers_.size());
  for (int w = 0; w < workers; ++w) {
    if (host_.home_of(w) == w) continue;
    // Deterministic stagger: first beats spread over one period so the
    // control plane is not hit by a synchronized burst (no RNG — the
    // phase is a pure function of the worker id).
    const sim::SimTime phase = period * (w + 1) / (workers + 1);
    engine_.after(phase, [this, w] { send_heartbeat(w); });
  }
  engine_.after(period, [this] { sweep(); });
}

void Monitor::add_worker(int w) {
  assert(static_cast<std::size_t>(w) == peers_.size());
  peers_.emplace_back().joined = engine_.now();
  quarantine_.add_worker();
  engine_.after(kHeartbeatPeriod, [this, w] { send_heartbeat(w); });
}

void Monitor::send_heartbeat(int w) {
  if (done_ || !host_.worker_alive(w)) return;  // fell silent
  ++counters_.heartbeat_messages;
  ctrl_.send(w, host_.home_of(w), 0, [this, w] {
    if (done_) return;
    Peer& peer = peers_[static_cast<std::size_t>(w)];
    peer.last_heartbeat = engine_.now();
    peer.detector.heartbeat(engine_.now());
  });
  engine_.after(kHeartbeatPeriod, [this, w] { send_heartbeat(w); });
}

void Monitor::sweep() {
  if (done_) return;
  PROF_SCOPE("resil.sweep");
  const sim::SimTime now = engine_.now();
  for (int w = 0; w < static_cast<int>(peers_.size()); ++w) {
    if (host_.home_of(w) == w || quarantine_.ejected(w)) continue;
    const Peer& peer = peers_[static_cast<std::size_t>(w)];
    if (peer.detector.started()) {
      if (peer.detector.phi(now) > kPhiThreshold) suspect(w);
    } else {
      // Bootstrap: no inter-arrival distribution yet (the worker died —
      // or its link degraded — before two heartbeats arrived). Judge the
      // silence against the configured period instead, counted from the
      // later of its join and its last beat: a helper that a rewire added
      // in this very pass has not been silent at all.
      const sim::SimTime since =
          now - std::max(peer.joined, peer.last_heartbeat);
      if (since > kPhiThreshold * kHeartbeatPeriod) suspect(w);
    }
  }
  engine_.after(kHeartbeatPeriod, [this] { sweep(); });
}

// --- leases: offload, ACK, retransmit, completion ----------------------------

void Monitor::offload(std::uint64_t task, int w, double work) {
  // The offload must be acknowledged within the lease timeout or it is
  // retransmitted with capped backoff.
  LeaseRecord& lease = leases_.grant(task, w, work);
  send_offload(task, w, lease);
  lease.timer = engine_.after(LeaseTable::backoff_delay(1),
                              [this, task] { on_lease_timeout(task); });
}

std::uint64_t Monitor::epoch_of(std::uint64_t task,
                                [[maybe_unused]] int w) const {
  const LeaseRecord* lease = leases_.find(task);
  if (lease == nullptr) return 0;
  assert(lease->worker == w);
  return lease->epoch;
}

LeaseRecord* Monitor::current(std::uint64_t task, int w, std::uint64_t epoch) {
  LeaseRecord* lease = leases_.find(task);
  return lease != nullptr && lease->worker == w && lease->epoch == epoch
             ? lease
             : nullptr;
}

void Monitor::send_offload(std::uint64_t task, int w,
                           const LeaseRecord& lease) {
  // The message carries the task's work: a stale copy may arrive after the
  // task's record retired, and its zombie execution still needs it.
  ctrl_.send(host_.home_of(w), w, 0,
             [this, task, w, epoch = lease.epoch, work = lease.work] {
               on_offload_delivered(task, w, epoch, work);
             });
}

void Monitor::on_offload_delivered(std::uint64_t task, int w,
                                   std::uint64_t epoch, double work) {
  if (done_ || !host_.worker_alive(w)) return;  // or delivered to a corpse
  LeaseRecord* lease = current(task, w, epoch);
  if (lease == nullptr) {
    // Stale copy at a live worker: the home runtime has already re-queued
    // the task elsewhere (the lease moved on), but the helper cannot know
    // that. It executes the task as a zombie; the completion it eventually
    // reports names the stale epoch and is suppressed. Modelled off-book —
    // the zombie burns time, not scheduler state.
    const double speed = host_.node_speed(host_.node_of(w));
    engine_.after(work / speed, [this, task, w, epoch] {
      if (done_ || !host_.worker_alive(w)) return;
      send_completion(task, w, epoch);
    });
    return;
  }
  if (lease->helper_received) {
    // Duplicate copy (a retransmit raced the original): just re-ACK.
    send_ack(task, w, epoch);
    return;
  }
  lease->helper_received = true;
  send_ack(task, w, epoch);
  host_.offload_delivered(task, w);
}

void Monitor::send_ack(std::uint64_t task, int w, std::uint64_t epoch) {
  ++control_messages_;
  ctrl_.send(w, host_.home_of(w), 0,
             [this, task, w, epoch] { on_ack(task, w, epoch); });
}

void Monitor::on_ack(std::uint64_t task, int w, std::uint64_t epoch) {
  if (done_) return;
  LeaseRecord* lease = current(task, w, epoch);
  // A stale ACK names a lease that has moved on.
  if (lease == nullptr || lease->acked) return;
  lease->acked = true;
  engine_.cancel(lease->timer);
  lease->timer = sim::kInvalidEvent;
  quarantine_.record_success(w);
}

void Monitor::on_lease_timeout(std::uint64_t task) {
  if (done_) return;
  LeaseRecord* lease = leases_.find(task);
  if (lease == nullptr || lease->acked) return;  // settled meanwhile
  const int w = lease->worker;
  if (lease->attempts < kLeaseMaxAttempts) {
    lease->attempts += 1;
    ++counters_.lease_retransmits;
    ++control_messages_;
    send_offload(task, w, *lease);
    lease->timer =
        engine_.after(LeaseTable::backoff_delay(lease->attempts),
                      [this, task] { on_lease_timeout(task); });
    return;
  }
  // Attempts exhausted: the lease expires. The task moves elsewhere; the
  // worker moves towards quarantine.
  ++counters_.lease_expiries;
  lease->timer = sim::kInvalidEvent;
  if (quarantine_.record_expiry(w) && !quarantine_.ejected(w)) {
    suspect(w);  // voids every lease on w, including this one
  } else if (!quarantine_.ejected(w)) {
    requeue(task);
    host_.replan(w, Verdict::Expired);
  }
}

void Monitor::send_completion(std::uint64_t task, int w,
                              std::uint64_t epoch) {
  // A current execution's completion settles the worker's in-flight count
  // now, so a re-queue before it lands must not charge the worker again.
  if (LeaseRecord* lease = current(task, w, epoch)) {
    lease->completion_in_flight = true;
  }
  ++control_messages_;
  ctrl_.send(w, host_.home_of(w), 0,
             [this, task, w, epoch] { on_completion(task, w, epoch); });
}

void Monitor::on_completion(std::uint64_t task, int w, std::uint64_t epoch) {
  if (done_) return;
  LeaseRecord* lease = current(task, w, epoch);
  if (lease == nullptr) {
    // Zombie or otherwise stale completion: the lease moved on (the task
    // was re-queued, possibly already completed elsewhere). Suppressing it
    // here is what makes completion accounting exactly-once at the home
    // runtime.
    ++counters_.duplicates_suppressed;
    return;
  }
  engine_.cancel(lease->timer);
  leases_.revoke(task);
  quarantine_.record_success(w);
  host_.complete_task(task);
}

// --- suspicion, quarantine, probe ---------------------------------------------

void Monitor::requeue(std::uint64_t task) {
  LeaseRecord* lease = leases_.find(task);
  assert(lease != nullptr);
  const LeaseRecord revoked = *lease;
  engine_.cancel(revoked.timer);
  leases_.revoke(task);
  host_.void_assignment(task, revoked.worker, revoked.epoch,
                        revoked.helper_received, revoked.completion_in_flight);
}

void Monitor::suspect(int w) {
  if (done_ || quarantine_.ejected(w)) return;
  assert(host_.home_of(w) != w && "home workers are never suspected");
  // Detection verdict: real failure or false suspicion?
  if (!host_.worker_alive(w)) {
    ++counters_.detections;
    counters_.detection_latency_sum +=
        engine_.now() - peers_[static_cast<std::size_t>(w)].crashed_at;
    host_.mark("detected crash of worker " + std::to_string(w));
  } else {
    ++counters_.false_suspicions;
    host_.mark("false suspicion of worker " + std::to_string(w));
  }

  // Outlier ejection (Envoy-style): out of scheduler candidacy until the
  // cooling period ends, then probed back in.
  ++counters_.quarantine_ejections;
  engine_.at(quarantine_.eject(w, engine_.now()), [this, w] { probe(w); });

  // Void everything leased to the suspect, in ascending task-id order.
  for (const std::uint64_t task : leases_.tasks_on(w)) requeue(task);
  host_.replan(w, Verdict::Suspected);
}

void Monitor::probe(int w) {
  if (done_ || !quarantine_.ejected(w)) return;
  // The probe is a liveness check: has the worker produced a heartbeat
  // since it was ejected?
  Peer& peer = peers_[static_cast<std::size_t>(w)];
  if (host_.worker_alive(w) &&
      peer.last_heartbeat > quarantine_.ejected_at(w)) {
    quarantine_.readmit(w);
    // Forget pre-ejection inter-arrival history (it includes the silence
    // that caused the ejection and would poison the fresh estimate).
    peer.detector.reset();
    ++counters_.quarantine_readmissions;
    host_.mark("readmitted worker " + std::to_string(w));
    host_.replan(w, Verdict::Readmitted);
    return;
  }
  // Still silent: extend the quarantine with a longer (capped) cooling.
  engine_.at(quarantine_.extend(w, engine_.now()), [this, w] { probe(w); });
}

}  // namespace tlb::resil
