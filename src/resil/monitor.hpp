// Monitor — the one owner of the Heartbeat-mode protocol
// (DetectionMode::Heartbeat). Helpers beat over the control plane and a
// periodic sweep suspects a silent one by its phi level; every remote
// assignment travels under an epoch-stamped lease that is ACKed, or
// retransmitted with capped backoff until it expires; a completion that
// names a stale epoch (ghost or zombie) is suppressed, so each task
// completes exactly once at its home; repeated expiries or a phi crossing
// quarantine a helper until a probe hears it again. The runtime builds one
// only in Heartbeat mode and serves it through the narrow Host interface,
// keeping liveness, executions and DLB state itself; to the runtime an
// epoch is an opaque token. Unit tests drive it against a fake Host.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "resil/config.hpp"
#include "resil/lease.hpp"
#include "resil/phi_detector.hpp"
#include "resil/quarantine.hpp"
#include "sim/engine.hpp"
#include "vmpi/comm.hpp"

namespace tlb::resil {

/// What the monitor concluded about a helper (Host::replan).
enum class Verdict { Expired, Suspected, Readmitted };

/// The runtime as the monitor sees it. Workers are control-plane ranks.
class Host {
 public:
  virtual ~Host() = default;
  [[nodiscard]] virtual bool worker_alive(int w) const = 0;
  /// The apprank process `w` reports to (a home worker is its own).
  [[nodiscard]] virtual int home_of(int w) const = 0;
  [[nodiscard]] virtual int node_of(int w) const = 0;
  [[nodiscard]] virtual double node_speed(int node) const = 0;
  /// The first copy of a current offload reached helper `w`.
  virtual void offload_delivered(std::uint64_t task, int w) = 0;
  /// A current completion reached the home runtime.
  virtual void complete_task(std::uint64_t task) = 0;
  /// The lease `epoch` of `task` on `w` was revoked: void the assignment
  /// and re-queue the task. `delivered`: an offload copy had arrived;
  /// `settled`: the helper had finished and its completion is in flight.
  virtual void void_assignment(std::uint64_t task, int w, std::uint64_t epoch,
                               bool delivered, bool settled) = 0;
  virtual void replan(int w, Verdict verdict) = 0;
  virtual void mark(std::string_view label) = 0;  ///< a timeline mark, now
};

class Monitor {
 public:
  /// State for `workers` workers; messages travel on `ctrl`, whose ranks
  /// are the worker ids.
  Monitor(sim::Engine& engine, vmpi::Communicator& ctrl, Host& host,
          int workers);

  /// Seeds the staggered first heartbeats and the first sweep.
  void start();
  /// The run is over: pending timers and messages become no-ops.
  void stop() { done_ = true; }
  /// Helper `w` joined (expander rewire); it beats one period from now.
  void add_worker(int w);
  /// `w` crashed now; a detection's latency counts from here.
  void note_crash(int w) {
    peers_[static_cast<std::size_t>(w)].crashed_at = engine_.now();
  }
  /// Covers the remote assignment of `task` (of `work`) to helper `w` with
  /// a fresh lease and sends the offload.
  void offload(std::uint64_t task, int w, double work);
  /// The epoch of the lease `w` holds on `task`, or 0 without one.
  [[nodiscard]] std::uint64_t epoch_of(std::uint64_t task, int w) const;
  /// Helper `w` finished `task` under `epoch`: report it to the home.
  void send_completion(std::uint64_t task, int w, std::uint64_t epoch);

  [[nodiscard]] bool ejected(int w) const { return quarantine_.ejected(w); }
  [[nodiscard]] std::size_t outstanding_leases() const {
    return leases_.size();
  }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// ACKs, completions and retransmitted offloads sent.
  [[nodiscard]] std::uint64_t control_messages() const {
    return control_messages_;
  }

 private:
  void send_heartbeat(int w);
  void sweep();
  void send_offload(std::uint64_t task, int w, const LeaseRecord& lease);
  void on_offload_delivered(std::uint64_t task, int w, std::uint64_t epoch,
                            double work);
  void send_ack(std::uint64_t task, int w, std::uint64_t epoch);
  void on_ack(std::uint64_t task, int w, std::uint64_t epoch);
  void on_lease_timeout(std::uint64_t task);
  void on_completion(std::uint64_t task, int w, std::uint64_t epoch);
  /// The lease on `task` if `w` holds it under `epoch`, else null.
  LeaseRecord* current(std::uint64_t task, int w, std::uint64_t epoch);
  /// Revokes the lease on `task`; the host voids the assignment.
  void requeue(std::uint64_t task);
  /// Quarantines `w`, records the verdict, voids every lease on it.
  void suspect(int w);
  /// End of cooling: readmit `w` if heard since its ejection, else extend.
  void probe(int w);

  sim::Engine& engine_;
  vmpi::Communicator& ctrl_;
  Host& host_;
  LeaseTable leases_;
  struct Peer {
    PhiAccrualDetector detector{kPhiWindow, kPhiMinStd};
    sim::SimTime joined = 0.0;           ///< start of the run, or its rewire
    sim::SimTime last_heartbeat = -1.0;  ///< last arrival (-1 = none)
    sim::SimTime crashed_at = -1.0;      ///< physical crash (-1 = alive)
  };
  std::vector<Peer> peers_;  ///< per worker
  Quarantine quarantine_;
  Counters counters_;
  std::uint64_t control_messages_ = 0;
  bool done_ = false;
};

}  // namespace tlb::resil
