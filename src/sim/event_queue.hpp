// A cancellable priority queue of timestamped events.
//
// Events with equal timestamps fire in insertion (FIFO) order, which makes
// simulations deterministic: the tie-break is a monotonically increasing
// sequence number, never an address or hash.
//
// Engineered for the hot loop of large runs (bench/fig17 drives ~1M tasks
// through it): a hand-rolled 4-ary implicit heap in one contiguous vector
// (arena) whose sift operations *move* entries, so popping never copies a
// std::function (std::priority_queue::top() forces a copy). Cancelled
// entries stay queued as tombstones and are dropped when they reach the
// root.
//
// The observable pop order is bit-identical to the legacy
// std::priority_queue implementation; golden-fingerprint tests pin this.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "prof/prof.hpp"
#include "sim/time.hpp"

namespace tlb::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
using EventId = std::uint64_t;

/// Invalid/empty event handle.
inline constexpr EventId kInvalidEvent = 0;

/// Identifies who scheduled an event (see Engine::new_owner). Owner 0 is
/// the default: everything not scheduled under a taken owner.
using OwnerId = std::uint32_t;

/// The default owner; never retired.
inline constexpr OwnerId kDefaultOwner = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    // Release the alloc-accounting charge of entries still queued at
    // teardown (sim.event must balance to zero; entries are charged in
    // push() and released when physically removed).
    if (!heap_.empty()) {
      prof::free_note(prof::AllocTag::SimEvent, heap_.size() * sizeof(Entry));
    }
  }

  /// A popped event: its time, its owner and its callback.
  struct Popped {
    SimTime time = 0.0;
    OwnerId owner = kDefaultOwner;
    Callback cb;
  };

  /// Schedules `cb` to fire at absolute time `t` on behalf of `owner`.
  /// Returns a handle that can be passed to cancel().
  EventId push(SimTime t, Callback cb, OwnerId owner = kDefaultOwner);

  /// Cancels a previously scheduled event. Cancelling an event that already
  /// fired (or was already cancelled) is a harmless no-op.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Pops the earliest live event. Requires !empty().
  Popped pop();

 private:
  struct Entry {
    SimTime time;
    EventId id;
    OwnerId owner;
    Callback cb;
  };
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;  // FIFO for equal timestamps
  }

  void heap_push(Entry e);
  /// Removes the heap root (heap_[0]); the caller has already moved its
  /// callback out if it needs it.
  void heap_pop_root();
  /// Drops cancelled entries from the heap root.
  void skip_cancelled();
  [[nodiscard]] bool is_pending(EventId id) const {
    return pending_[static_cast<std::size_t>(id)];
  }

  std::vector<Entry> heap_;  ///< 4-ary implicit min-heap by (time, id)
  /// One bit per issued id, set while the event is queued and live:
  /// cleared when it fires or is cancelled, so cancel() can tell a queued
  /// event from a fired one, and a queued entry whose bit is clear is a
  /// tombstone. Index 0 is kInvalidEvent. 125 KB per million events.
  std::vector<bool> pending_ = std::vector<bool>(1, false);
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace tlb::sim
