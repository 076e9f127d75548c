#include "dlb/drom.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace tlb::dlb {

int DromModule::apply(const std::vector<std::pair<WorkerId, int>>& target) {
  if (!enabled_) return 0;
  // An empty target means the balance policy excluded this node entirely
  // (every resident unusable): ownership stays as-is rather than asserting
  // full coverage.
  if (target.empty()) return 0;
#ifndef NDEBUG
  int sum = 0;
  for (const auto& [w, count] : target) {
    assert(count >= 1 && "every worker must own at least one core");
    sum += count;
  }
  assert(sum == cores_.core_count() && "target must cover every core");
#endif

  // Deficit per worker = target - currently owned.
  std::vector<std::pair<WorkerId, int>> deficit;
  for (const auto& [w, count] : target) {
    deficit.emplace_back(w, count - cores_.owned_count(w));
  }

  // Donor cores: owned by an over-provisioned worker. Prefer idle cores so
  // the new owner can use them right away.
  auto surplus_of = [&](WorkerId w) -> int* {
    for (auto& [dw, d] : deficit) {
      if (dw == w) return &d;
    }
    return nullptr;
  };

  std::vector<int> donors;
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_idle = (pass == 0);
    for (int core = 0; core < cores_.core_count(); ++core) {
      if (cores_.is_running(core) == want_idle) continue;
      int* d = surplus_of(cores_.owner(core));
      if (d != nullptr && *d < 0) {
        donors.push_back(core);
        ++*d;  // provisionally released
      }
    }
  }

  // Hand donor cores to under-provisioned workers.
  int moved = 0;
  std::size_t di = 0;
  for (auto& [w, d] : deficit) {
    while (d > 0 && di < donors.size()) {
      cores_.set_owner(donors[di++], w);
      --d;
      ++moved;
      ++changes_;
    }
  }
  assert(di == donors.size() && "donor/recipient mismatch");
  return moved;
}

}  // namespace tlb::dlb
