// Unit tests for the DLB modules: core registry, LeWI, DROM, TALP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core_oracle.hpp"
#include "dlb/core_registry.hpp"
#include "dlb/drom.hpp"
#include "dlb/lewi.hpp"
#include "dlb/talp.hpp"

namespace tlb::dlb {
namespace {

TEST(NodeCores, InitialOwnershipAndLease) {
  NodeCores nc(4, 7);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(nc.owner(c), 7);
    EXPECT_EQ(nc.lease(c), 7);
    EXPECT_FALSE(nc.is_running(c));
  }
  EXPECT_EQ(nc.owned_count(7), 4);
  EXPECT_EQ(oracle::leased_count(nc, 7), 4);
}

TEST(NodeCores, SetOwnerIdleMovesLease) {
  NodeCores nc(2, 0);
  nc.set_owner(0, 1);
  EXPECT_EQ(nc.owner(0), 1);
  EXPECT_EQ(nc.lease(0), 1);
  EXPECT_FALSE(nc.reclaim_pending(0));
}

TEST(NodeCores, SetOwnerRunningDefersLease) {
  NodeCores nc(1, 0);
  nc.task_started(0);
  nc.set_owner(0, 1);
  EXPECT_EQ(nc.owner(0), 1);
  EXPECT_EQ(nc.lease(0), 0);  // still running under the old lease
  EXPECT_TRUE(nc.reclaim_pending(0));
  EXPECT_EQ(nc.task_finished(0), 1);  // transfer applies at the boundary
  EXPECT_EQ(nc.lease(0), 1);
}

TEST(NodeCores, LendBorrowReclaimIdle) {
  NodeCores nc(1, 0);
  nc.lend(0);
  EXPECT_TRUE(nc.is_in_pool(0));
  EXPECT_TRUE(nc.try_borrow(0, 2));
  EXPECT_EQ(nc.lease(0), 2);
  nc.reclaim(0);  // idle: immediate
  EXPECT_EQ(nc.lease(0), 0);
}

TEST(NodeCores, ReclaimRunningBorrowedWaitsForTaskEnd) {
  NodeCores nc(1, 0);
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  nc.task_started(0);
  nc.reclaim(0);
  EXPECT_EQ(nc.lease(0), 2);  // borrower finishes its task
  EXPECT_TRUE(nc.reclaim_pending(0));
  EXPECT_EQ(nc.task_finished(0), 0);
  EXPECT_EQ(nc.lease(0), 0);
  EXPECT_FALSE(nc.reclaim_pending(0));
}

TEST(NodeCores, BorrowFailsWhenNotPooled) {
  NodeCores nc(1, 0);
  EXPECT_FALSE(nc.try_borrow(0, 2));  // not lent
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  EXPECT_FALSE(nc.try_borrow(0, 3));  // already borrowed
}

TEST(NodeCores, ReleaseBorrowedReturnsToPool) {
  NodeCores nc(1, 0);
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  nc.release_borrowed(0);
  EXPECT_TRUE(nc.is_in_pool(0));
}

TEST(NodeCores, ReleaseBorrowedHonoursPendingTransfer) {
  NodeCores nc(1, 0);
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  nc.set_owner(0, 3);  // idle but borrowed: transfer deferred
  EXPECT_EQ(nc.lease(0), 2);
  nc.release_borrowed(0);
  EXPECT_EQ(nc.lease(0), 3);  // pending applied on release
}

TEST(NodeCores, EveryCoreAlwaysHasExactlyOneOwner) {
  NodeCores nc(8, 0);
  nc.set_owner(3, 1);
  nc.set_owner(5, 2);
  int total = 0;
  for (WorkerId w : {0, 1, 2}) total += nc.owned_count(w);
  EXPECT_EQ(total, 8);
  nc.check_invariants();
}

TEST(NodeCores, IdleLeasedAndPooledQueries) {
  NodeCores nc(4, 0);
  nc.task_started(1);
  nc.lend(2);
  EXPECT_EQ(nc.idle_leased_count(0), 2);  // cores 0 and 3
  EXPECT_EQ(nc.first_idle_leased(0), 0);
  EXPECT_EQ(nc.next_idle_leased(0, 1), 3);
  EXPECT_EQ(nc.next_idle_leased(0, 4), -1);
  EXPECT_EQ(nc.next_pooled(0), 2);
  EXPECT_EQ(nc.next_pooled(3), -1);
  EXPECT_EQ(nc.reclaimable_count(0), 1);  // the pooled core 2
  EXPECT_EQ(nc.idle_leased_count(5), 0);  // never seen on this node
  EXPECT_EQ(nc.first_idle_leased(5), -1);
  EXPECT_EQ(oracle::idle_leased_cores(nc, 0), (std::vector<int>{0, 3}));
  EXPECT_EQ(oracle::pooled_cores(nc), std::vector<int>{2});
}

// DROM hands an idle core to the worker that is borrowing it: the borrower
// already holds the lease, so the handover is immediate, with no transfer
// left pending and the new owner free to lend the core.
TEST(NodeCores, SetOwnerToIdleBorrowerHandsOverAtOnce) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  ASSERT_EQ(lw.borrow(1, 1), 1);  // core 0
  nc.set_owner(0, 1);
  EXPECT_EQ(nc.lease(0), 1);
  EXPECT_FALSE(nc.reclaim_pending(0));
  EXPECT_EQ(lw.lend_idle(1), 1);
  EXPECT_TRUE(nc.is_in_pool(0));
  nc.check_invariants();
}

TEST(Lewi, DisabledIsNoOp) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, false);
  EXPECT_EQ(lw.lend_idle(0), 0);
  EXPECT_EQ(lw.borrow(1, 5), 0);
  EXPECT_EQ(lw.reclaim_for(0, 5), 0);
  EXPECT_EQ(oracle::pooled_cores(nc).size(), 0u);
}

TEST(Lewi, LendIdleMovesOwnedCoresToPool) {
  NodeCores nc(3, 0);
  nc.task_started(0);
  LewiModule lw(nc, true);
  EXPECT_EQ(lw.lend_idle(0), 2);
  EXPECT_EQ(oracle::pooled_cores(nc).size(), 2u);
  EXPECT_EQ(lw.lends(), 2u);
}

TEST(Lewi, BorrowTakesUpToLimit) {
  NodeCores nc(4, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  EXPECT_EQ(lw.borrow(1, 3), 3);
  EXPECT_EQ(oracle::leased_count(nc, 1), 3);
  EXPECT_EQ(lw.borrows(), 3u);
}

TEST(Lewi, BorrowSkipsOwnCores) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  // Worker 0 should reclaim, not borrow, its own pooled cores.
  EXPECT_EQ(lw.borrow(0, 2), 0);
  EXPECT_EQ(lw.reclaim_for(0, 2), 2);
  EXPECT_EQ(oracle::leased_count(nc, 0), 2);
}

TEST(Lewi, ReclaimOnlyIssuesNeeded) {
  NodeCores nc(4, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  EXPECT_EQ(lw.reclaim_for(0, 2), 2);
  EXPECT_EQ(oracle::leased_count(nc, 0), 2);
  EXPECT_EQ(oracle::pooled_cores(nc).size(), 2u);
}

TEST(Lewi, LendIdleReleasesBorrowedCores) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  ASSERT_EQ(lw.borrow(1, 2), 2);
  EXPECT_EQ(lw.lend_idle(1), 2);  // releases them back to the pool
  EXPECT_EQ(oracle::pooled_cores(nc).size(), 2u);
}

// --- index vs brute-force oracle ------------------------------------------

/// Compares every indexed NodeCores query with the rescanning oracle and
/// checks the state invariants (first as expectations, so a violation is
/// reported with the caller's seed instead of aborting in
/// check_invariants()).
void expect_index_matches_oracle(const NodeCores& nc,
                                 const std::vector<WorkerId>& workers) {
  for (WorkerId w : workers) {
    const std::vector<int> idle = oracle::idle_leased_cores(nc, w);
    EXPECT_EQ(nc.idle_leased_count(w), static_cast<int>(idle.size()))
        << "worker " << w;
    EXPECT_EQ(nc.first_idle_leased(w), idle.empty() ? -1 : idle.front())
        << "worker " << w;
    std::vector<int> walked;
    for (int c = nc.first_idle_leased(w);
         c >= 0 && static_cast<int>(walked.size()) <= nc.core_count();
         c = nc.next_idle_leased(w, c + 1)) {
      walked.push_back(c);
    }
    EXPECT_EQ(walked, idle) << "worker " << w;
    EXPECT_EQ(nc.owned_count(w), oracle::owned_count(nc, w)) << "worker " << w;
    EXPECT_EQ(nc.reclaimable_count(w), oracle::reclaimable_count(nc, w))
        << "worker " << w;
  }
  std::vector<int> pooled;
  for (int c = nc.next_pooled(0);
       c >= 0 && static_cast<int>(pooled.size()) <= nc.core_count();
       c = nc.next_pooled(c + 1)) {
    pooled.push_back(c);
  }
  EXPECT_EQ(pooled, oracle::pooled_cores(nc));
  for (int c = 0; c < nc.core_count(); ++c) {
    EXPECT_NE(nc.owner(c), kNoWorker) << "core " << c;
    if (nc.is_running(c)) {
      EXPECT_NE(nc.lease(c), kNoWorker) << "core " << c;
    }
    if (nc.reclaim_pending(c)) {
      EXPECT_NE(nc.pending_lease(c), nc.lease(c)) << "core " << c;
    }
  }
  if (!::testing::Test::HasFailure()) nc.check_invariants();
}

/// Seeded churn over every NodeCores / LewiModule / DromModule operation,
/// including DROM ownership changes of running, pooled and borrowed cores.
/// The index is compared with the oracle after every operation.
void run_index_churn(int cores, std::uint64_t seed, int ops) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(cores) +
               " cores");
  std::mt19937_64 rng(seed);
  const std::vector<WorkerId> workers = {3, 7, 11, 12, 40, 41};
  std::vector<WorkerId> queried = workers;
  queried.push_back(99);  // never appears on the node
  NodeCores nc(cores, workers.front());
  LewiModule lw(nc, true);
  DromModule dm(nc, true);

  auto uniform = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  auto any_worker = [&] {
    const int k = uniform(static_cast<int>(workers.size()));
    return workers[static_cast<std::size_t>(k)];
  };
  // A random core satisfying `pred`, or -1 if none does.
  auto pick_core = [&](auto pred) {
    const int start = uniform(cores);
    for (int k = 0; k < cores; ++k) {
      const int c = (start + k) % cores;
      if (pred(c)) return c;
    }
    return -1;
  };
  auto running = [&](int c) { return nc.is_running(c); };
  auto pooled = [&](int c) { return nc.is_in_pool(c); };
  auto borrowed = [&](int c) {
    return !nc.is_running(c) && !nc.is_in_pool(c) && nc.lease(c) != nc.owner(c);
  };

  int drom_running = 0;
  int drom_pooled = 0;
  int drom_borrowed = 0;
  for (int step = 0; step < ops; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (uniform(11)) {
      case 0: {  // DROM: one ownership change, biased to the interesting states
        int core = -1;
        switch (uniform(4)) {
          case 0: core = pick_core(running); break;
          case 1: core = pick_core(pooled); break;
          case 2: core = pick_core(borrowed); break;
          default: break;
        }
        if (core < 0) core = uniform(cores);
        drom_running += nc.is_running(core);
        drom_pooled += nc.is_in_pool(core);
        drom_borrowed += borrowed(core);
        nc.set_owner(core, any_worker());
        break;
      }
      case 1: {
        const int core = pick_core([&](int c) {
          return nc.lease(c) == nc.owner(c) && !nc.is_running(c);
        });
        if (core >= 0) nc.lend(core);
        break;
      }
      case 2: {
        int core = pick_core(pooled);
        if (core < 0 || uniform(4) == 0) core = uniform(cores);
        const bool expect = nc.is_in_pool(core) && !nc.is_running(core);
        EXPECT_EQ(nc.try_borrow(core, any_worker()), expect);
        break;
      }
      case 3: {
        const int core = pick_core(borrowed);
        if (core >= 0) nc.release_borrowed(core);
        break;
      }
      case 4:
        nc.reclaim(uniform(cores));
        break;
      case 5: {
        const int core = pick_core([&](int c) {
          return !nc.is_in_pool(c) && !nc.is_running(c);
        });
        if (core >= 0) nc.task_started(core);
        break;
      }
      case 6: {
        const int core = pick_core(running);
        if (core < 0) break;
        const WorkerId expect = nc.reclaim_pending(core)
                                    ? nc.pending_lease(core)
                                    : nc.lease(core);
        EXPECT_EQ(nc.task_finished(core), expect);
        break;
      }
      case 7: {
        // Every idle core of `w` goes to the pool, or to its owner when a
        // transfer is pending.
        const WorkerId w = any_worker();
        std::vector<std::pair<int, WorkerId>> expect;
        for (int c : oracle::idle_leased_cores(nc, w)) {
          expect.emplace_back(c, nc.pending_lease(c));
        }
        EXPECT_EQ(lw.lend_idle(w), static_cast<int>(expect.size()));
        for (const auto& [c, lease] : expect) {
          EXPECT_EQ(nc.lease(c), lease) << "core " << c;
        }
        break;
      }
      case 8: {
        const WorkerId w = any_worker();
        const int want = uniform(cores / 2);
        std::vector<int> expect;
        for (int c : oracle::pooled_cores(nc)) {
          if (static_cast<int>(expect.size()) < want && nc.owner(c) != w) {
            expect.push_back(c);
          }
        }
        EXPECT_EQ(lw.borrow(w, want), static_cast<int>(expect.size()));
        for (int c : expect) EXPECT_EQ(nc.lease(c), w) << "core " << c;
        break;
      }
      case 9: {
        const WorkerId w = any_worker();
        const int needed = uniform(cores / 4);
        const int before = oracle::reclaimable_count(nc, w);
        const int expect = std::min(needed, before);
        EXPECT_EQ(lw.reclaim_for(w, needed), expect);
        EXPECT_EQ(oracle::reclaimable_count(nc, w), before - expect);
        break;
      }
      default: {  // DROM: a whole-node plan covering every current owner
        std::vector<WorkerId> members;
        for (WorkerId w : workers) {
          if (nc.owned_count(w) > 0 || uniform(3) == 0) members.push_back(w);
        }
        std::vector<int> cuts;
        for (std::size_t k = 1; k < members.size(); ++k) {
          int cut = 0;
          do {
            cut = 1 + uniform(cores - 1);
          } while (std::find(cuts.begin(), cuts.end(), cut) != cuts.end());
          cuts.push_back(cut);
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.push_back(cores);
        std::vector<std::pair<WorkerId, int>> target;
        int prev = 0;
        for (std::size_t k = 0; k < members.size(); ++k) {
          target.emplace_back(members[k], cuts[k] - prev);
          prev = cuts[k];
        }
        dm.apply(target);
        for (const auto& [w, count] : target) {
          EXPECT_EQ(oracle::owned_count(nc, w), count) << "worker " << w;
        }
        break;
      }
    }
    expect_index_matches_oracle(nc, queried);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(drom_running, 0);
  EXPECT_GT(drom_pooled, 0);
  EXPECT_GT(drom_borrowed, 0);
}

TEST(NodeCoresIndex, MatchesOracleUnderRandomChurn) {
  // 130 cores spans three bitset words, with a partial last word.
  for (int cores : {48, 130}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      run_index_churn(cores, seed, 10000);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(Drom, DisabledIsNoOp) {
  NodeCores nc(4, 0);
  DromModule dm(nc, false);
  EXPECT_EQ(dm.apply({{0, 1}, {1, 3}}), 0);
  EXPECT_EQ(nc.owned_count(0), 4);
}

TEST(Drom, AppliesTargetCounts) {
  NodeCores nc(8, 0);
  DromModule dm(nc, true);
  const int moved = dm.apply({{0, 5}, {1, 2}, {2, 1}});
  EXPECT_EQ(moved, 3);
  EXPECT_EQ(nc.owned_count(0), 5);
  EXPECT_EQ(nc.owned_count(1), 2);
  EXPECT_EQ(nc.owned_count(2), 1);
  nc.check_invariants();
}

TEST(Drom, MinimalMovesWhenAlreadyBalanced) {
  NodeCores nc(4, 0);
  DromModule dm(nc, true);
  dm.apply({{0, 2}, {1, 2}});
  EXPECT_EQ(dm.apply({{0, 2}, {1, 2}}), 0);  // no change needed
}

TEST(Drom, PrefersIdleDonorCores) {
  NodeCores nc(3, 0);
  nc.task_started(0);  // core 0 busy
  DromModule dm(nc, true);
  dm.apply({{0, 1}, {1, 2}});
  // The running core 0 should stay with worker 0; cores 1 and 2 moved.
  EXPECT_EQ(nc.owner(0), 0);
  EXPECT_EQ(nc.owner(1), 1);
  EXPECT_EQ(nc.owner(2), 1);
}

TEST(Drom, MovesRunningCoreWhenUnavoidable) {
  NodeCores nc(2, 0);
  nc.task_started(0);
  nc.task_started(1);
  DromModule dm(nc, true);
  dm.apply({{0, 1}, {1, 1}});
  EXPECT_EQ(nc.owned_count(1), 1);
  // Lease transfers only at the task boundary.
  const int moved_core = nc.owner(0) == 1 ? 0 : 1;
  EXPECT_TRUE(nc.reclaim_pending(moved_core));
}

TEST(Talp, AccumulatesBusyTime) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 2);
  talp.on_busy_delta(0, +1);
  now = 2.0;
  talp.on_busy_delta(0, +1);
  now = 3.0;
  talp.on_busy_delta(0, -2);
  EXPECT_DOUBLE_EQ(talp.busy_core_seconds(0), 2.0 * 1 + 1.0 * 2);
  EXPECT_DOUBLE_EQ(talp.busy_core_seconds(1), 0.0);
}

TEST(Talp, WindowAverage) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  talp.on_busy_delta(0, +1);
  now = 1.0;
  EXPECT_DOUBLE_EQ(talp.window_average(0), 1.0);
  talp.reset_window();
  now = 2.0;
  talp.on_busy_delta(0, +1);  // two busy from t=2
  now = 4.0;
  // Window [1, 4): busy 1 for 1s then 2 for 2s => 5/3.
  EXPECT_NEAR(talp.window_average(0), 5.0 / 3.0, 1e-12);
}

TEST(Talp, ResetWindowClearsOnlyWindow) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  talp.on_busy_delta(0, +1);
  now = 5.0;
  talp.reset_window();
  EXPECT_DOUBLE_EQ(talp.busy_core_seconds(0), 5.0);
  now = 6.0;
  EXPECT_DOUBLE_EQ(talp.window_average(0), 1.0);
}

TEST(Talp, CurrentBusyTracksDeltas) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  EXPECT_EQ(talp.current_busy(0), 0);
  talp.on_busy_delta(0, +1);
  talp.on_busy_delta(0, +1);
  EXPECT_EQ(talp.current_busy(0), 2);
  talp.on_busy_delta(0, -1);
  EXPECT_EQ(talp.current_busy(0), 1);
}

}  // namespace
}  // namespace tlb::dlb
