#include "sim/engine.hpp"

#include "prof/prof.hpp"

namespace tlb::sim {

SimTime Engine::run() {
  stopped_ = false;
  if (prof::enabled()) return run_profiled();
  while (!queue_.empty() && !stopped_) {
    auto [t, cb] = queue_.pop();
    assert(t >= now_ && "event queue time went backwards");
    now_ = t;
    ++fired_;
    cb();
  }
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
  while (!queue_.empty() && !stopped_) {
    SimTime t;
    Callback cb;
    {
      PROF_SCOPE("engine.pop");
      auto popped = queue_.pop();
      t = popped.first;
      cb = std::move(popped.second);
    }
    assert(t >= now_ && "event queue time went backwards");
    now_ = t;
    ++fired_;
    {
      PROF_SCOPE("engine.dispatch");
      cb();
    }
    if (--until_sample == 0) {
      stride = profiler.sample(fired_, queue_.size());
      until_sample = stride;
    }
  }
  return now_;
}

}  // namespace tlb::sim
