// Discrete-event simulation engine.
//
// The engine owns the simulated clock and the event queue. Client code
// schedules callbacks at absolute or relative simulated times; run() fires
// them in timestamp order (FIFO for ties) until the queue drains or a stop
// is requested.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>

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

  /// Schedules `cb` at absolute simulated time `t` (must be >= now()).
  EventId at(SimTime t, Callback cb) {
    assert(t >= now_ && "cannot schedule in the past");
    return queue_.push(t, std::move(cb));
  }

  /// Schedules `cb` after a relative delay `dt` (must be >= 0).
  EventId after(SimTime dt, Callback cb) {
    assert(dt >= 0.0 && "negative delay");
    return queue_.push(now_ + dt, std::move(cb));
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

 private:
  /// Instrumented twin of run(), entered when tlb::prof is on.
  SimTime run_profiled();

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
};

}  // namespace tlb::sim
