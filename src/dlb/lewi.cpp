#include "dlb/lewi.hpp"

#include <algorithm>

namespace tlb::dlb {

int LewiModule::lend_idle(WorkerId w) {
  if (!enabled_) return 0;
  int moved = 0;
  // Ascending core order; lending or releasing a core changes no other
  // core's state, so resuming the search past it sees every candidate.
  for (int core = cores_.first_idle_leased(w); core >= 0;
       core = cores_.next_idle_leased(w, core + 1)) {
    if (cores_.owner(core) == w) {
      cores_.lend(core);
      ++lends_;
      ++moved;
    } else {
      cores_.release_borrowed(core);
      ++moved;
    }
  }
  return moved;
}

int LewiModule::borrow(WorkerId w, int max_cores) {
  if (!enabled_ || max_cores <= 0) return 0;
  int got = 0;
  for (int core = cores_.next_pooled(0); core >= 0 && got < max_cores;
       core = cores_.next_pooled(core + 1)) {
    if (cores_.owner(core) == w) continue;  // take own cores via reclaim
    if (cores_.try_borrow(core, w)) {
      ++got;
      ++borrows_;
    }
  }
  return got;
}

int LewiModule::reclaim_for(WorkerId w, int needed) {
  if (!enabled_ || needed <= 0) return 0;
  // Every reclaim issued below retires one reclaimable core, so the walk
  // can stop once it has issued as many as there are.
  const int target = std::min(needed, cores_.reclaimable_count(w));
  int issued = 0;
  for (int core = 0; core < cores_.core_count() && issued < target; ++core) {
    if (cores_.owner(core) != w) continue;
    if (cores_.lease(core) == w) continue;
    if (cores_.pending_lease(core) == w) continue;  // already on its way
    cores_.reclaim(core);
    ++reclaims_;
    ++issued;
  }
  return issued;
}

}  // namespace tlb::dlb
