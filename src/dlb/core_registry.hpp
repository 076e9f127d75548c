// Core ownership and leasing state for one node (DLB's shared-memory view).
//
// Every physical core of a node is *owned* by exactly one worker process
// (an apprank or a helper rank) at all times — the DROM invariant. The
// *lease* tracks who may currently run tasks on the core:
//   - normally the owner;
//   - kNoWorker while the core sits in the LeWI lending pool;
//   - a borrower after LeWI borrowing.
// Reclaims (by the owner) and ownership changes (by DROM) that hit a core
// in the middle of a task take effect at the task boundary — a task is
// never preempted, matching OmpSs-2 malleability semantics.
//
// LeWI and the scheduler query this state on every task boundary, so the
// registry keeps an exact index next to the per-core records: one idle-core
// bitset per lessee plus one for the pool, and per-worker owned /
// idle-leased / reclaimable counts. Every mutator updates the index in one
// private step (update()), so each query below is O(1) or one
// lowest-set-bit search, and none allocates.
#pragma once

#include <cstdint>
#include <vector>

namespace tlb::dlb {

/// Globally unique worker-process id (apprank main process or helper rank).
using WorkerId = int;
inline constexpr WorkerId kNoWorker = -1;

class NodeCores {
 public:
  /// All cores initially owned (and leased) by `initial_owner`.
  NodeCores(int core_count, WorkerId initial_owner);

  [[nodiscard]] int core_count() const { return static_cast<int>(cores_.size()); }

  [[nodiscard]] WorkerId owner(int core) const {
    return worker(at(core).owner);
  }
  [[nodiscard]] WorkerId lease(int core) const {
    return worker(at(core).lease);
  }
  [[nodiscard]] bool is_running(int core) const { return at(core).running; }
  [[nodiscard]] bool is_in_pool(int core) const {
    return at(core).lease == kNoSlot;
  }
  [[nodiscard]] bool reclaim_pending(int core) const {
    return at(core).pending;
  }
  /// Who the core will be leased to at the next task boundary (kNoWorker if
  /// no transfer is pending). A pending transfer always goes to the owner.
  [[nodiscard]] WorkerId pending_lease(int core) const {
    return at(core).pending ? owner(core) : kNoWorker;
  }

  // --- DROM: ownership -----------------------------------------------------

  /// Transfers ownership. If the core is idle and leased to the old owner,
  /// to the new owner, or pooled, the lease moves immediately; if a third
  /// party borrows it or it is running a task, the transfer completes at
  /// the next release_borrowed() / task_finished().
  void set_owner(int core, WorkerId new_owner);

  // --- LeWI: lend / borrow / reclaim ----------------------------------------

  /// Owner stops using an idle core: it enters the lending pool.
  /// Requires: lease == owner, not running.
  void lend(int core);

  /// A worker takes an idle pooled core. Returns false if unavailable.
  bool try_borrow(int core, WorkerId borrower);

  /// Borrower voluntarily returns an idle core to the pool.
  /// Requires: leased to a non-owner, not running.
  void release_borrowed(int core);

  /// Owner wants its core back. Immediate when the core is idle; otherwise
  /// marked pending and applied at task_finished(). No-op when the owner
  /// already holds the lease.
  void reclaim(int core);

  // --- execution notifications ----------------------------------------------

  /// Runtime marks a task starting on the core (requires leased, idle).
  void task_started(int core);

  /// Runtime marks the task done. Applies any pending lease transfer and
  /// returns the worker now holding the lease.
  WorkerId task_finished(int core);

  // --- indexed queries -------------------------------------------------------

  [[nodiscard]] int owned_count(WorkerId w) const;
  /// Idle cores leased to `w`.
  [[nodiscard]] int idle_leased_count(WorkerId w) const;
  /// Cores `w` owns but does not hold and is not already getting back
  /// (owner == w, lease != w, pending != w): what LeWI can reclaim.
  [[nodiscard]] int reclaimable_count(WorkerId w) const;
  /// Lowest idle core leased to `w` with index >= `from`; -1 if none.
  [[nodiscard]] int next_idle_leased(WorkerId w, int from) const;
  [[nodiscard]] int first_idle_leased(WorkerId w) const {
    return next_idle_leased(w, 0);
  }
  /// Lowest pooled core with index >= `from`; -1 if none.
  [[nodiscard]] int next_pooled(int from) const;

  /// Debug invariant check: every core has an owner; lease/pending states
  /// are mutually consistent. Aborts (assert) on violation.
  void check_invariants() const;

 private:
  /// Index of a worker's Tally; every worker that has owned or leased a
  /// core on this node has one, in order of first appearance. Core records
  /// name workers by slot: update() then reaches the tallies without a
  /// search, and a record stays at 6 bytes (svc keeps thousands of
  /// finished runtimes, and their registries, alive).
  using Slot = std::int16_t;
  static constexpr Slot kNoSlot = -1;

  struct Core {
    Slot owner = kNoSlot;
    Slot lease = kNoSlot;  ///< kNoSlot: in the lending pool
    bool pending = false;  ///< lease returns to the owner at task end
    bool running = false;
  };
  struct Tally {  // core counts fit in 16 bits (checked at construction)
    WorkerId worker = kNoWorker;
    std::int16_t owned = 0;
    std::int16_t idle_leased = 0;
    std::int16_t reclaimable = 0;
  };

  [[nodiscard]] const Core& at(int core) const {
    return cores_.at(static_cast<std::size_t>(core));
  }
  /// 64-bit words per bitset.
  [[nodiscard]] std::size_t words() const { return (cores_.size() + 63) / 64; }
  [[nodiscard]] WorkerId worker(Slot s) const {
    return s == kNoSlot ? kNoWorker
                        : tallies_[static_cast<std::size_t>(s)].worker;
  }

  /// The one place a core's state changes: withdraws the core's old
  /// contribution from the index, stores `next`, adds the new one.
  void update(int core, const Core& next);
  void account(int core, const Core& c, bool add);
  /// Slot of `w`; kNoSlot if `w` never appeared on this node.
  [[nodiscard]] Slot find_slot(WorkerId w) const;
  /// Slot of `w`, appending an empty Tally on first sight.
  Slot slot(WorkerId w);
  /// Lowest set bit >= `from` in bitset `row` (0: pool, 1 + slot: idle
  /// cores leased to that slot's worker); -1 if none.
  [[nodiscard]] int next_set(std::size_t row, int from) const;

  std::vector<Core> cores_;
  std::vector<Tally> tallies_;
  /// Row-major bitsets, words() words each: row 0 is the pool, row 1 + s
  /// holds the idle cores leased to tallies_[s].worker.
  std::vector<std::uint64_t> bits_;
};

}  // namespace tlb::dlb
