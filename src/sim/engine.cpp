#include "sim/engine.hpp"

#include "prof/prof.hpp"

namespace tlb::sim {

SimTime Engine::run() {
  stopped_ = false;
  if (prof::enabled()) return run_profiled();
  const OwnerId outer = owner_;
  while (!queue_.empty() && !stopped_) {
    auto [t, owner, cb] = queue_.pop();
    assert(t >= now_ && "event queue time went backwards");
    now_ = t;
    ++fired_;
    if (retired(owner)) {
      ++retired_fired_;
      continue;
    }
    owner_ = owner;
    cb();
  }
  owner_ = outer;
  return now_;
}

// The instrumented twin of run() above: identical pop/dispatch
// semantics (same pop order, same clock updates, same fired_ counting —
// goldens are bit-identical either way), plus host-time attribution and a
// health snapshot every `stride` fired events. Kept out of the default
// loop so the profiler-off path pays nothing, not even dead branches in
// the hot loop body.
SimTime Engine::run_profiled() {
  auto& profiler = prof::Profiler::instance();
  std::uint64_t stride = profiler.snapshot_stride();
  std::uint64_t until_sample = stride;
  const OwnerId outer = owner_;
  while (!queue_.empty() && !stopped_) {
    EventQueue::Popped popped;
    {
      PROF_SCOPE("engine.pop");
      popped = queue_.pop();
    }
    assert(popped.time >= now_ && "event queue time went backwards");
    now_ = popped.time;
    ++fired_;
    if (retired(popped.owner)) {
      ++retired_fired_;
    } else {
      PROF_SCOPE("engine.dispatch");
      owner_ = popped.owner;
      popped.cb();
    }
    if (--until_sample == 0) {
      stride = profiler.sample(fired_, queue_.size());
      until_sample = stride;
    }
  }
  owner_ = outer;
  return now_;
}

}  // namespace tlb::sim
