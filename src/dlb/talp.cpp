#include "dlb/talp.hpp"

namespace tlb::dlb {

TalpModule::TalpModule(std::function<sim::SimTime()> now, int worker_count)
    : now_(std::move(now)),
      state_(static_cast<std::size_t>(worker_count)) {
  assert(worker_count > 0);
  const sim::SimTime t = now_();
  window_start_ = t;
  for (State& s : state_) s.last = t;
}

void TalpModule::add_worker() {
  State s;
  s.last = now_();
  state_.push_back(s);
}

void TalpModule::accumulate(State& s) const {
  const sim::SimTime t = now_();
  const double dt = t - s.last;
  if (dt > 0.0) {
    s.total += s.busy * dt;
    s.window += s.busy * dt;
    s.last = t;
  }
}

void TalpModule::on_busy_delta(int worker, int delta) {
  State& s = state_.at(static_cast<std::size_t>(worker));
  accumulate(s);
  s.busy += delta;
  assert(s.busy >= 0 && "negative busy-core count");
}

double TalpModule::busy_core_seconds(int worker) const {
  State s = state_.at(static_cast<std::size_t>(worker));
  accumulate(s);
  return s.total;
}

double TalpModule::window_average(int worker) const {
  State s = state_.at(static_cast<std::size_t>(worker));
  accumulate(s);
  const double span = now_() - window_start_;
  if (span <= 0.0) return static_cast<double>(s.busy);
  return s.window / span;
}

void TalpModule::reset_window() {
  const sim::SimTime t = now_();
  for (State& s : state_) {
    accumulate(s);
    s.window = 0.0;
  }
  window_start_ = t;
}

}  // namespace tlb::dlb
