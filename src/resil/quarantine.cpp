#include "resil/quarantine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tlb::resil {

Quarantine::Quarantine(int worker_count)
    : state_(static_cast<std::size_t>(worker_count)) {}

sim::SimTime Quarantine::cooling(int ejections) {
  return std::min(kQuarantineCooling * std::pow(kQuarantineBackoff, ejections),
                  kQuarantineCoolingCap);
}

void Quarantine::add_worker() { state_.emplace_back(); }

bool Quarantine::record_expiry(int w) {
  State& s = state_.at(static_cast<std::size_t>(w));
  s.streak += 1;
  return s.streak >= kQuarantineThreshold;
}

void Quarantine::record_success(int w) {
  state_.at(static_cast<std::size_t>(w)).streak = 0;
}

sim::SimTime Quarantine::eject(int w, sim::SimTime now) {
  State& s = state_.at(static_cast<std::size_t>(w));
  assert(!s.ejected && "worker is already quarantined");
  s.ejected = true;
  s.ejected_at = now;
  return now + cooling(s.ejections++);
}

sim::SimTime Quarantine::extend(int w, sim::SimTime now) {
  State& s = state_.at(static_cast<std::size_t>(w));
  assert(s.ejected && "extending a worker that is not quarantined");
  return now + cooling(s.ejections++);
}

void Quarantine::readmit(int w) {
  State& s = state_.at(static_cast<std::size_t>(w));
  assert(s.ejected && "readmitting a worker that is not quarantined");
  s.ejected = false;
  s.streak = 0;
}

}  // namespace tlb::resil
