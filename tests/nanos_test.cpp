// Unit tests for the task runtime substrate: dependency graph and data
// location tracking.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nanos/data_location.hpp"
#include "nanos/dependency_graph.hpp"
#include "nanos/task.hpp"
#include "nanos_oracle.hpp"

namespace tlb::nanos {
namespace {

AccessRegion in(std::uint64_t start, std::uint64_t size) {
  return {start, size, AccessMode::In};
}
AccessRegion out(std::uint64_t start, std::uint64_t size) {
  return {start, size, AccessMode::Out};
}
AccessRegion inout(std::uint64_t start, std::uint64_t size) {
  return {start, size, AccessMode::InOut};
}

struct DepFixture {
  TaskPool pool;
  DependencyGraph graph{pool};

  TaskId add(std::vector<AccessRegion> accesses, bool* ready = nullptr) {
    const TaskId id = pool.create(0, 1.0, std::move(accesses));
    const bool r = graph.register_task(id);
    if (ready != nullptr) *ready = r;
    return id;
  }
};

TEST(DependencyGraph, IndependentTasksAreReady) {
  DepFixture f;
  bool r1 = false;
  bool r2 = false;
  f.add({out(0, 10)}, &r1);
  f.add({out(100, 10)}, &r2);
  EXPECT_TRUE(r1);
  EXPECT_TRUE(r2);
  EXPECT_EQ(f.graph.edge_count(), 0u);
}

TEST(DependencyGraph, ReadAfterWrite) {
  DepFixture f;
  const TaskId w = f.add({out(0, 10)});
  bool ready = true;
  const TaskId r = f.add({in(0, 10)}, &ready);
  EXPECT_FALSE(ready);
  const auto now_ready = f.graph.on_task_finished(w, 0.0);
  ASSERT_EQ(now_ready.size(), 1u);
  EXPECT_EQ(now_ready[0], r);
}

TEST(DependencyGraph, WriteAfterWrite) {
  DepFixture f;
  const TaskId w1 = f.add({out(0, 10)});
  bool ready = true;
  f.add({out(0, 10)}, &ready);
  EXPECT_FALSE(ready);
  EXPECT_EQ(f.graph.on_task_finished(w1, 0.0).size(), 1u);
}

TEST(DependencyGraph, WriteAfterRead) {
  DepFixture f;
  const TaskId w = f.add({out(0, 10)});
  f.graph.on_task_finished(w, 0.0);
  bool r_ready = false;
  const TaskId r = f.add({in(0, 10)}, &r_ready);
  EXPECT_TRUE(r_ready);  // writer already finished
  bool w2_ready = true;
  f.add({out(0, 10)}, &w2_ready);
  EXPECT_FALSE(w2_ready);  // WAR on the live reader
  EXPECT_EQ(f.graph.on_task_finished(r, 0.0).size(), 1u);
}

TEST(DependencyGraph, ConcurrentReadersShareReadiness) {
  DepFixture f;
  const TaskId w = f.add({out(0, 10)});
  bool ra = true;
  bool rb = true;
  f.add({in(0, 10)}, &ra);
  f.add({in(0, 10)}, &rb);
  EXPECT_FALSE(ra);
  EXPECT_FALSE(rb);
  EXPECT_EQ(f.graph.on_task_finished(w, 0.0).size(), 2u);  // both release
}

TEST(DependencyGraph, WriterWaitsForAllReaders) {
  DepFixture f;
  const TaskId w = f.add({out(0, 10)});
  f.graph.on_task_finished(w, 0.0);
  const TaskId r1 = f.add({in(0, 10)});
  const TaskId r2 = f.add({in(0, 10)});
  bool w2_ready = true;
  f.add({out(0, 10)}, &w2_ready);
  EXPECT_FALSE(w2_ready);
  EXPECT_TRUE(f.graph.on_task_finished(r1, 0.0).empty());
  EXPECT_EQ(f.graph.on_task_finished(r2, 0.0).size(), 1u);
}

TEST(DependencyGraph, PartialOverlapCreatesDependency) {
  DepFixture f;
  const TaskId w = f.add({out(0, 10)});
  bool ready = true;
  f.add({in(5, 10)}, &ready);  // overlaps bytes 5..9
  EXPECT_FALSE(ready);
  EXPECT_EQ(f.graph.on_task_finished(w, 0.0).size(), 1u);
}

TEST(DependencyGraph, DisjointRegionsCommute) {
  DepFixture f;
  f.add({out(0, 10)});
  bool ready = false;
  f.add({out(10, 10)}, &ready);  // adjacent, not overlapping
  EXPECT_TRUE(ready);
}

TEST(DependencyGraph, InOutActsAsReadAndWrite) {
  DepFixture f;
  const TaskId a = f.add({inout(0, 10)});
  bool b_ready = true;
  const TaskId b = f.add({inout(0, 10)}, &b_ready);
  EXPECT_FALSE(b_ready);
  bool c_ready = true;
  f.add({inout(0, 10)}, &c_ready);
  EXPECT_FALSE(c_ready);
  EXPECT_EQ(f.graph.on_task_finished(a, 0.0).size(), 1u);
  EXPECT_EQ(f.graph.on_task_finished(b, 0.0).size(), 1u);
}

TEST(DependencyGraph, ChainReleasesInOrder) {
  DepFixture f;
  std::vector<TaskId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(f.add({inout(0, 8)}));
  for (int i = 0; i + 1 < 5; ++i) {
    const auto ready =
        f.graph.on_task_finished(chain[static_cast<std::size_t>(i)], 0.0);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], chain[static_cast<std::size_t>(i) + 1]);
  }
}

TEST(DependencyGraph, MultiRegionTaskDedupesPredecessors) {
  DepFixture f;
  const TaskId w = f.add({out(0, 10), out(20, 10)});
  bool ready = true;
  const TaskId r = f.add({in(0, 5), in(25, 5)}, &ready);
  EXPECT_FALSE(ready);
  EXPECT_EQ(f.pool.get(r).deps_remaining, 1);
  EXPECT_EQ(f.graph.on_task_finished(w, 0.0).size(), 1u);
}

TEST(DependencyGraph, LiveTaskCountTracksLifecycle) {
  DepFixture f;
  const TaskId a = f.add({out(0, 4)});
  const TaskId b = f.add({in(0, 4)});
  EXPECT_EQ(f.graph.live_tasks(), 2u);
  f.graph.on_task_finished(a, 0.0);
  EXPECT_EQ(f.graph.live_tasks(), 1u);
  f.graph.on_task_finished(b, 0.0);
  EXPECT_EQ(f.graph.live_tasks(), 0u);
}

TEST(DependencyGraph, ZeroSizeRegionIsIgnored) {
  DepFixture f;
  f.add({out(0, 10)});
  bool ready = false;
  f.add({in(0, 0)}, &ready);
  EXPECT_TRUE(ready);
}

TEST(DependencyGraph, ManyDisjointWritersScale) {
  DepFixture f;
  for (int i = 0; i < 1000; ++i) {
    bool ready = false;
    f.add({out(static_cast<std::uint64_t>(i) * 64, 64)}, &ready);
    ASSERT_TRUE(ready);
  }
  EXPECT_EQ(f.graph.edge_count(), 0u);
}

TEST(DataLocations, DefaultsToHome) {
  DataLocations loc(3);
  EXPECT_EQ(loc.location_of(0), 3);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 3), 0u);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 5), 100u);
}

TEST(DataLocations, TaskExecutionMovesOutputs) {
  DataLocations loc(0);
  loc.task_executed({out(0, 100)}, 2);
  EXPECT_EQ(loc.location_of(50), 2);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 2), 0u);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 0), 100u);
}

TEST(DataLocations, PureInputsDoNotRelocate) {
  DataLocations loc(0);
  loc.task_executed({in(0, 100)}, 2);
  EXPECT_EQ(loc.location_of(50), 0);
}

TEST(DataLocations, PartialOverwrite) {
  DataLocations loc(0);
  loc.task_executed({out(0, 100)}, 1);
  loc.task_executed({out(25, 50)}, 2);
  EXPECT_EQ(loc.location_of(0), 1);
  EXPECT_EQ(loc.location_of(30), 2);
  EXPECT_EQ(loc.location_of(80), 1);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 1), 50u);
}

TEST(DataLocations, PullMovesAndPrices) {
  DataLocations loc(0);
  loc.task_executed({out(0, 100)}, 2);
  EXPECT_EQ(loc.pull({in(0, 100)}, 0), 100u);
  EXPECT_EQ(loc.location_of(10), 0);
  EXPECT_EQ(loc.pull({in(0, 100)}, 0), 0u);  // already home
}

TEST(DataLocations, ResidentBytesComplementMissing) {
  DataLocations loc(0);
  loc.task_executed({out(0, 60)}, 1);
  const std::vector<AccessRegion> acc = {in(0, 100)};
  std::vector<std::uint64_t> resident;
  loc.resident_input_bytes(acc, {1, 0}, resident);
  EXPECT_EQ(resident, (std::vector<std::uint64_t>{60u, 40u}));
  EXPECT_EQ(loc.missing_input_bytes(acc, 1), 40u);
}

TEST(DataLocations, OutputRegionsIgnoredForTransferCost) {
  DataLocations loc(0);
  EXPECT_EQ(loc.missing_input_bytes({out(0, 100)}, 5), 0u);
}

TEST(DataLocations, ScatteredSegmentsAccumulate) {
  DataLocations loc(0);
  loc.task_executed({out(0, 10)}, 1);
  loc.task_executed({out(20, 10)}, 2);
  loc.task_executed({out(40, 10)}, 1);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 50)}, 1), 20u + 10u);
}

TEST(DataLocations, AdjacentRangesBehaveAsOneSegment) {
  // Two writes landing back-to-back on the same node must scan exactly
  // like one coalesced segment: no seam at the shared boundary.
  DataLocations loc(0);
  loc.task_executed({out(0, 50)}, 1);
  loc.task_executed({out(50, 50)}, 1);
  EXPECT_EQ(loc.location_of(49), 1);
  EXPECT_EQ(loc.location_of(50), 1);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 1), 0u);
  EXPECT_EQ(loc.missing_input_bytes({in(0, 100)}, 0), 100u);
  // A scan straddling just the seam sees contiguous residency.
  std::vector<std::uint64_t> resident;
  loc.resident_input_bytes({in(40, 20)}, {1}, resident);
  EXPECT_EQ(resident, (std::vector<std::uint64_t>{20u}));
  // And the per-source breakdown reports a single holder.
  const auto sources = loc.missing_by_source({in(0, 100)}, 0);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].first, 1);
  EXPECT_EQ(sources[0].second, 100u);
}

TEST(DataLocations, PullOverPartiallyResidentRegion) {
  // [0, 100) lives on node 2; the pulled region [50, 150) is half there,
  // half home. The pull moves every non-resident byte and leaves the
  // untouched prefix where it was.
  DataLocations loc(0);
  loc.task_executed({out(0, 100)}, 2);
  EXPECT_EQ(loc.pull({in(50, 100)}, 1), 100u);
  EXPECT_EQ(loc.location_of(49), 2);   // untouched prefix
  EXPECT_EQ(loc.location_of(50), 1);
  EXPECT_EQ(loc.location_of(149), 1);
  EXPECT_EQ(loc.location_of(150), 0);  // beyond the pull: still home
  EXPECT_EQ(loc.pull({in(50, 100)}, 1), 0u);  // idempotent
}

TEST(DataLocations, MissingBytesAtSegmentBoundaries) {
  // Segments [0,30) on 1 and [30,60) on 2, remainder home on 0. A region
  // crossing both boundaries must count each span against the right
  // holder.
  DataLocations loc(0);
  loc.task_executed({out(0, 30)}, 1);
  loc.task_executed({out(30, 30)}, 2);
  EXPECT_EQ(loc.missing_input_bytes({in(10, 40)}, 2), 20u);  // [10,30)
  EXPECT_EQ(loc.missing_input_bytes({in(10, 40)}, 1), 20u);  // [30,50)
  EXPECT_EQ(loc.missing_input_bytes({in(10, 40)}, 0), 40u);  // both
  EXPECT_EQ(loc.missing_input_bytes({in(10, 60)}, 0), 50u);  // + home tail
}

TEST(DataLocations, MissingBySourceGroupsByHolder) {
  DataLocations loc(0);
  loc.task_executed({out(0, 30)}, 1);
  loc.task_executed({out(30, 30)}, 2);
  // From node 3's view, three holders contribute: home, node 1, node 2 —
  // reported in ascending node order, totals matching the scalar scan.
  const auto sources = loc.missing_by_source({in(0, 90)}, 3);
  ASSERT_EQ(sources.size(), 3u);
  EXPECT_EQ(sources[0], (std::pair<int, std::uint64_t>{0, 30u}));
  EXPECT_EQ(sources[1], (std::pair<int, std::uint64_t>{1, 30u}));
  EXPECT_EQ(sources[2], (std::pair<int, std::uint64_t>{2, 30u}));
  std::uint64_t total = 0;
  for (const auto& [node, bytes] : sources) {
    (void)node;
    total += bytes;
  }
  EXPECT_EQ(total, loc.missing_input_bytes({in(0, 90)}, 3));
  // A holder's own view excludes itself.
  const auto from_one = loc.missing_by_source({in(0, 90)}, 1);
  ASSERT_EQ(from_one.size(), 2u);
  EXPECT_EQ(from_one[0].first, 0);
  EXPECT_EQ(from_one[1].first, 2);
}

TEST(DataLocations, PullBySourceRelocatesAndReports) {
  DataLocations loc(0);
  loc.task_executed({out(0, 30)}, 1);
  loc.task_executed({out(30, 30)}, 2);
  const auto moved = loc.pull_by_source({in(0, 90)}, 0);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], (std::pair<int, std::uint64_t>{1, 30u}));
  EXPECT_EQ(moved[1], (std::pair<int, std::uint64_t>{2, 30u}));
  EXPECT_EQ(loc.missing_input_bytes({in(0, 90)}, 0), 0u);
  EXPECT_TRUE(loc.pull_by_source({in(0, 90)}, 0).empty());  // idempotent
}

// Random access ranges over a 64 KiB space of 1 KiB blocks, in four shapes:
// block-aligned runs of blocks, unaligned spans, ranges nested inside one
// block, and long spans crossing many earlier boundaries and gaps. Every
// boundary handed out is recorded, so the tests can probe location_of on
// both sides of every run edge either implementation may hold.
class RangeGen {
 public:
  explicit RangeGen(std::uint64_t seed) : rng_(seed) {}

  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }

  AccessRegion region(AccessMode mode) {
    constexpr std::uint64_t kBlock = 1024;
    constexpr int kBlocks = 64;
    std::uint64_t start = 0;
    std::uint64_t size = 0;
    switch (pick(5)) {
      case 0:  // aligned
        start = static_cast<std::uint64_t>(pick(kBlocks)) * kBlock;
        size = static_cast<std::uint64_t>(1 + pick(4)) * kBlock;
        break;
      case 1:  // unaligned
        start = static_cast<std::uint64_t>(pick(kBlocks * 1024));
        size = static_cast<std::uint64_t>(1 + pick(3000));
        break;
      case 2:  // nested inside one block
        start = static_cast<std::uint64_t>(pick(kBlocks)) * kBlock +
                static_cast<std::uint64_t>(pick(512));
        size = static_cast<std::uint64_t>(1 + pick(512));
        break;
      case 3:  // gap-spanning
        start = static_cast<std::uint64_t>(pick(kBlocks / 2)) * kBlock +
                static_cast<std::uint64_t>(pick(100));
        size = static_cast<std::uint64_t>(8 + pick(kBlocks / 2)) * kBlock;
        break;
      default:  // empty, or a single byte
        start = static_cast<std::uint64_t>(pick(kBlocks * 1024));
        size = static_cast<std::uint64_t>(pick(2));
        break;
    }
    edges_.insert(start);
    edges_.insert(start + size);
    return {start, size, mode};
  }

  std::vector<AccessRegion> accesses() {
    std::vector<AccessRegion> out;
    const int n = 1 + pick(3);
    for (int k = 0; k < n; ++k) {
      out.push_back(region(static_cast<AccessMode>(pick(3))));
    }
    return out;
  }

  [[nodiscard]] const std::set<std::uint64_t>& edges() const { return edges_; }

 private:
  std::mt19937_64 rng_;
  std::set<std::uint64_t> edges_;
};

/// Compares location_of on both sides of each edge in `edges`.
template <typename Edges>
void expect_same_location_at(const DataLocations& loc,
                             const oracle::MapDataLocations& ref,
                             const Edges& edges) {
  for (std::uint64_t e : edges) {
    ASSERT_EQ(loc.location_of(e), ref.location_of(e)) << "at " << e;
    if (e > 0) {
      ASSERT_EQ(loc.location_of(e - 1), ref.location_of(e - 1)) << "at " << e - 1;
    }
  }
}

/// Compares every query on a fresh random probe, from each node's view.
void expect_queries_match(const DataLocations& loc,
                          const oracle::MapDataLocations& ref, RangeGen& gen,
                          int nodes) {
  const std::vector<AccessRegion> probe = gen.accesses();
  std::vector<int> all_nodes;
  std::vector<std::uint64_t> tally;
  for (int node = 0; node < nodes; ++node) all_nodes.push_back(node);
  loc.resident_input_bytes(probe, all_nodes, tally);
  ASSERT_EQ(tally.size(), all_nodes.size());
  for (int node = 0; node < nodes; ++node) {
    ASSERT_EQ(loc.missing_input_bytes(probe, node),
              ref.missing_input_bytes(probe, node));
    ASSERT_EQ(tally[static_cast<std::size_t>(node)],
              ref.resident_input_bytes(probe, node));
    ASSERT_EQ(loc.missing_by_source(probe, node),
              ref.missing_by_source(probe, node));
  }
}

TEST(NanosIndex, LocationsMatchMapOracleUnderRandomChurn) {
  constexpr int kNodes = 5;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RangeGen gen(seed);
    const int home = static_cast<int>(seed % kNodes);
    DataLocations loc(home);
    oracle::MapDataLocations ref(home);
    for (int op = 0; op < 1500; ++op) {
      const std::vector<AccessRegion> acc = gen.accesses();
      const int node = gen.pick(kNodes);
      switch (gen.pick(4)) {
        case 0:
        case 1:
          loc.task_executed(acc, node);
          ref.task_executed(acc, node);
          break;
        case 2:
          ASSERT_EQ(loc.pull(acc, node), ref.pull(acc, node));
          break;
        default:
          ASSERT_EQ(loc.pull_by_source(acc, node), ref.pull_by_source(acc, node));
          break;
      }
      // The edges this operation touched every time; every edge handed out
      // so far (a superset of both implementations' run edges) now and then.
      std::vector<std::uint64_t> touched;
      for (const AccessRegion& a : acc) {
        touched.push_back(a.start);
        touched.push_back(a.end());
      }
      expect_same_location_at(loc, ref, touched);
      if (op % 50 == 49) expect_same_location_at(loc, ref, gen.edges());
      expect_queries_match(loc, ref, gen, kNodes);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same_location_at(loc, ref, gen.edges());
  }
}

/// Random register / finish churn against the map oracle. With `retire`
/// the graph's pool retires its longest finished prefix after every
/// finish (as the runtime does at each barrier), so predecessors below
/// the watermark are never read; the oracle's pool keeps every record.
void expect_dependencies_match_oracle(bool retire) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RangeGen gen(seed);
    TaskPool pool;
    TaskPool ref_pool;
    DependencyGraph graph(pool);
    oracle::MapDependencyGraph ref(ref_pool);
    std::vector<TaskId> ready;
    auto finish = [&](std::size_t k) {
      const TaskId id = ready[k];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
      const std::vector<TaskId> released = graph.on_task_finished(id, 0.0);
      ASSERT_EQ(released, ref.on_task_finished(id)) << "finishing " << id;
      ready.insert(ready.end(), released.begin(), released.end());
      if (!retire) return;
      TaskId end = pool.retired();
      while (end < pool.size() && pool.get(end).state == TaskState::Finished) {
        ++end;
      }
      pool.retire_below(end);
    };
    for (int n = 0; n < 1200; ++n) {
      const std::vector<AccessRegion> acc = gen.accesses();
      const TaskId id = pool.create(0, 1.0, acc);
      ASSERT_EQ(ref_pool.create(0, 1.0, acc), id);
      const bool now_ready = graph.register_task(id);
      ASSERT_EQ(now_ready, ref.register_task(id)) << "task " << id;
      ASSERT_EQ(pool.get(id).deps_remaining, ref_pool.get(id).deps_remaining);
      ASSERT_EQ(graph.edge_count(), ref.edge_count());
      ASSERT_EQ(graph.live_tasks(), ref.live_tasks());
      if (now_ready) ready.push_back(id);
      // Finish a random share of the ready tasks so edges both to live and
      // to finished predecessors occur.
      while (!ready.empty() && gen.pick(3) == 0) {
        finish(static_cast<std::size_t>(gen.pick(static_cast<int>(ready.size()))));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    if (retire) {
      // About half the ids retire before the drain at these seeds.
      EXPECT_GT(pool.retired(), pool.size() / 4) << "few prefixes retired";
    }
    while (!ready.empty()) {
      finish(0);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(graph.live_tasks(), 0u);
    EXPECT_EQ(pool.retired(), retire ? pool.size() : 0u);
    for (TaskId id = pool.retired(); id < pool.size(); ++id) {
      ASSERT_EQ(pool.get(id).successors, ref_pool.get(id).successors)
          << "task " << id;
      ASSERT_EQ(pool.get(id).deps_remaining, ref_pool.get(id).deps_remaining);
      ASSERT_EQ(pool.get(id).state, TaskState::Finished);
    }
  }
}

TEST(NanosIndex, DependenciesMatchMapOracleUnderRandomChurn) {
  expect_dependencies_match_oracle(/*retire=*/false);
}

TEST(NanosIndex, DependenciesMatchMapOracleWithRetiredPrefixes) {
  expect_dependencies_match_oracle(/*retire=*/true);
}

// --- task record lifetime ----------------------------------------------------

/// Creates `n` tasks and marks each finished after one execution.
void create_finished(TaskPool& pool, int n) {
  for (int i = 0; i < n; ++i) {
    Task& t = pool.get(pool.create(0, 1.0, {}));
    t.state = TaskState::Finished;
    t.executions = 1;
    t.start_at = 0.5 * i;
    t.finish_at = 0.5 * i + 1.0;
  }
}

TEST(TaskPool, ReadingARetiredIdThrows) {
  TaskPool pool;
  create_finished(pool, 5);
  std::vector<TaskId> observed;
  pool.set_retire_observer([&](const Task& t) { observed.push_back(t.id); });
  pool.retire_below(3);
  EXPECT_EQ(observed, (std::vector<TaskId>{0, 1, 2}));
  EXPECT_EQ(pool.retired(), 3u);
  EXPECT_EQ(pool.size(), 5u);  // still every task ever created
  EXPECT_THROW((void)pool.get(0), std::out_of_range);
  EXPECT_THROW((void)pool.get(2), std::out_of_range);
  EXPECT_EQ(pool.get(3).id, 3u);
  EXPECT_THROW((void)pool.get(5), std::out_of_range);
  EXPECT_EQ(pool.create(0, 1.0, {}), 5u);  // ids stay dense
}

TEST(TaskPool, DigestFoldsRetiredRecordsInIdOrder) {
  // Retiring in two blocks folds the same digest as one block.
  TaskPool whole;
  TaskPool split;
  for (TaskPool* pool : {&whole, &split}) create_finished(*pool, 6);
  whole.retire_below(6);
  split.retire_below(2);
  split.retire_below(6);
  EXPECT_NE(whole.digest(), kFnvOffset);
  EXPECT_EQ(split.digest(), whole.digest());
}

TEST(TaskPool, CountsRecordsNotFinishedExactlyOnce) {
  TaskPool pool;
  create_finished(pool, 4);
  pool.get(1).state = TaskState::Running;  // never finished
  pool.get(2).executions = 2;              // an attempt nobody accounted
  pool.get(3).executions = 2;
  pool.get(3).reexecutions = 1;  // a rescue: still exactly once
  pool.retire_below(4);
  EXPECT_EQ(pool.not_exactly_once(), 2u);
}

}  // namespace
}  // namespace tlb::nanos
