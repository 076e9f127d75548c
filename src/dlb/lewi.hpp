// LeWI — Lend When Idle (paper §3.3, §5.3).
//
// Fine-grained load balancing within one node: a worker lends cores it
// cannot use right now into a pool; co-located workers with backlog borrow
// them; the owner reclaims as soon as it has work again. Reclaims of
// running cores resolve at the task boundary (NodeCores handles that).
#pragma once

#include <cstdint>

#include "dlb/core_registry.hpp"

namespace tlb::dlb {

class LewiModule {
 public:
  /// When `enabled` is false every operation is a no-op (the paper's
  /// "without LeWI" configurations).
  LewiModule(NodeCores& cores, bool enabled)
      : cores_(cores), enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Lends all of `w`'s idle *owned* cores into the pool. Idle *borrowed*
  /// cores are released instead. Returns the number of cores lent+released.
  int lend_idle(WorkerId w);

  /// Borrows up to `max_cores` pooled cores for `w`, lowest index first.
  /// Returns how many cores were borrowed.
  int borrow(WorkerId w, int max_cores);

  /// Owner `w` needs cores again: reclaims up to `needed` of its lent-out
  /// cores (idle ones return immediately; running ones at task end).
  /// Returns how many reclaims were issued.
  int reclaim_for(WorkerId w, int needed);

  // Lifetime statistics (diagnostics / tests).
  [[nodiscard]] std::uint64_t lends() const { return lends_; }
  [[nodiscard]] std::uint64_t borrows() const { return borrows_; }
  [[nodiscard]] std::uint64_t reclaims() const { return reclaims_; }

 private:
  NodeCores& cores_;
  bool enabled_;
  std::uint64_t lends_ = 0;
  std::uint64_t borrows_ = 0;
  std::uint64_t reclaims_ = 0;
};

}  // namespace tlb::dlb
