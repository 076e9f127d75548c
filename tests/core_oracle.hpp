// Brute-force oracle for dlb::NodeCores' indexed queries: each function
// rescans every core through the per-core accessors, the way the registry
// answered these queries before it kept an index. Tests compare the
// indexed answers against these.
#pragma once

#include <vector>

#include "dlb/core_registry.hpp"

namespace tlb::dlb::oracle {

/// Cores leased to `w` and idle, ascending.
inline std::vector<int> idle_leased_cores(const NodeCores& nc, WorkerId w) {
  std::vector<int> out;
  for (int i = 0; i < nc.core_count(); ++i) {
    if (nc.lease(i) == w && !nc.is_running(i)) out.push_back(i);
  }
  return out;
}

/// Cores in the lending pool, ascending.
inline std::vector<int> pooled_cores(const NodeCores& nc) {
  std::vector<int> out;
  for (int i = 0; i < nc.core_count(); ++i) {
    if (nc.lease(i) == kNoWorker) out.push_back(i);
  }
  return out;
}

inline int owned_count(const NodeCores& nc, WorkerId w) {
  int n = 0;
  for (int i = 0; i < nc.core_count(); ++i) n += (nc.owner(i) == w);
  return n;
}

inline int leased_count(const NodeCores& nc, WorkerId w) {
  int n = 0;
  for (int i = 0; i < nc.core_count(); ++i) n += (nc.lease(i) == w);
  return n;
}

/// Owned by `w`, leased elsewhere (or pooled), no transfer to `w` pending.
inline int reclaimable_count(const NodeCores& nc, WorkerId w) {
  int n = 0;
  for (int i = 0; i < nc.core_count(); ++i) {
    n += (nc.owner(i) == w && nc.lease(i) != w && nc.pending_lease(i) != w);
  }
  return n;
}

}  // namespace tlb::dlb::oracle
