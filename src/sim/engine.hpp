// Discrete-event simulation engine.
//
// The engine owns the simulated clock and the event queue. Client code
// schedules callbacks at absolute or relative simulated times; run() fires
// them in timestamp order (FIFO for ties) until the queue drains or a stop
// is requested.
//
// Every event carries an owner: the current owner when it was scheduled.
// run() makes an event's owner current while its callback runs, so the
// events a callback schedules inherit its owner without the call site
// naming it. Retiring an owner lets the objects its callbacks reference be
// destroyed while those events are still queued: such an event still pops
// at its time and counts in events_fired(), but its callback is destroyed
// without being called. Owner 0 is the default and is never retired.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace tlb::sim {

class Engine {
 public:
  using Callback = EventQueue::Callback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute simulated time `t` (must be >= now()),
  /// owned by the current owner.
  EventId at(SimTime t, Callback cb) {
    assert(t >= now_ && "cannot schedule in the past");
    return queue_.push(t, std::move(cb), owner_);
  }

  /// Schedules `cb` after a relative delay `dt` (must be >= 0), owned by
  /// the current owner.
  EventId after(SimTime dt, Callback cb) {
    assert(dt >= 0.0 && "negative delay");
    return queue_.push(now_ + dt, std::move(cb), owner_);
  }

  /// Cancels a scheduled event (no-op if it already fired).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the event queue drains or stop() is called.
  /// Returns the final simulated time.
  SimTime run();

  /// Requests that the current run() loop exits after the in-flight
  /// callback returns.
  void stop() noexcept { stopped_ = true; }

  /// Number of events fired since construction (diagnostic).
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

  /// Number of pending events (diagnostic).
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  // --- owners ----------------------------------------------------------------

  /// A fresh owner id.
  OwnerId new_owner() {
    if (retired_.empty()) retired_.push_back(0);  // the default owner
    retired_.push_back(0);
    return static_cast<OwnerId>(retired_.size() - 1);
  }

  /// From now on the callbacks of `o`'s events, queued or scheduled
  /// later, are dropped unrun. `o` must come from new_owner().
  void retire_owner(OwnerId o) {
    assert(o != kDefaultOwner && o < retired_.size() && "unknown owner");
    retired_[o] = 1;
  }

  /// The owner stamped on events scheduled now: the running callback's
  /// owner, or the one an OwnerScope set.
  [[nodiscard]] OwnerId owner() const noexcept { return owner_; }

  /// Makes `o` the current owner for the scope's lifetime.
  class OwnerScope {
   public:
    OwnerScope(Engine& engine, OwnerId o)
        : engine_(engine), outer_(engine.owner_) {
      engine_.owner_ = o;
    }
    ~OwnerScope() { engine_.owner_ = outer_; }
    OwnerScope(const OwnerScope&) = delete;
    OwnerScope& operator=(const OwnerScope&) = delete;

   private:
    Engine& engine_;
    OwnerId outer_;
  };

  /// Events that popped for a retired owner and were dropped unrun
  /// (diagnostic; included in events_fired()).
  [[nodiscard]] std::uint64_t retired_events() const noexcept {
    return retired_fired_;
  }

 private:
  /// Instrumented twin of run(), entered when tlb::prof is on.
  SimTime run_profiled();

  [[nodiscard]] bool retired(OwnerId o) const {
    return o != kDefaultOwner && retired_[o] != 0;
  }

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  OwnerId owner_ = kDefaultOwner;
  /// One flag per owner id, set once retired. Empty until the first
  /// new_owner(), so an engine that never hands out owners allocates
  /// nothing for them.
  std::vector<char> retired_;
  std::uint64_t retired_fired_ = 0;
};

}  // namespace tlb::sim
