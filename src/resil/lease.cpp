#include "resil/lease.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tlb::resil {

LeaseRecord& LeaseTable::grant(std::uint64_t task, int worker, double work) {
  assert(leases_.find(task) == leases_.end() &&
         "a task holds at most one live lease");
  LeaseRecord rec;
  rec.worker = worker;
  rec.epoch = next_epoch_++;
  rec.work = work;
  auto [it, inserted] = leases_.emplace(task, rec);
  (void)inserted;
  return it->second;
}

LeaseRecord* LeaseTable::find(std::uint64_t task) {
  auto it = leases_.find(task);
  return it == leases_.end() ? nullptr : &it->second;
}

const LeaseRecord* LeaseTable::find(std::uint64_t task) const {
  auto it = leases_.find(task);
  return it == leases_.end() ? nullptr : &it->second;
}

void LeaseTable::revoke(std::uint64_t task) { leases_.erase(task); }

std::vector<std::uint64_t> LeaseTable::tasks_on(int worker) const {
  std::vector<std::uint64_t> out;
  for (const auto& [task, rec] : leases_) {
    if (rec.worker == worker) out.push_back(task);
  }
  return out;  // std::map iteration: ascending task id
}

sim::SimTime LeaseTable::backoff_delay(int attempt) {
  assert(attempt >= 1);
  return std::min(kLeaseTimeout * std::pow(kLeaseBackoff, attempt - 1),
                  kLeaseTimeoutCap);
}

}  // namespace tlb::resil
