// Tests of the host-side engine self-profiler (tlb::prof): the
// record-only contract (golden schedule fingerprints bit-identical with
// profiling on), phase-tree accounting invariants (inclusive >=
// exclusive, parent >= sum of children), per-subsystem allocation
// counters balancing to zero after runtime teardown, a streamed run's
// mark memory not growing with its length, health-snapshot shape and
// self-thinning, collapsed-stack export format, and the disabled path
// recording nothing at all.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "fingerprint.hpp"
#include "prof/prof.hpp"

namespace {

using namespace tlb;
using namespace tlb::golden;

// The golden runs and fingerprints are shared (tests/fingerprint.hpp); the
// profiler only records host time — it must not move them.

core::RuntimeConfig with_prof(core::RuntimeConfig cfg,
                              std::uint64_t stride = 256) {
  cfg.prof.enabled = true;
  cfg.prof.snapshot_every_events = stride;
  return cfg;
}

/// The profiler is process-global; every test starts from a clean slate
/// and leaves it disabled so the rest of the suite stays on the no-op
/// path (the record-only tests in other files depend on that).
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::Profiler::instance().disable();
    prof::Profiler::instance().reset();
  }
  void TearDown() override {
    prof::Profiler::instance().disable();
    prof::Profiler::instance().reset();
  }
};

// --- record-only contract ----------------------------------------------------

TEST_F(ProfTest, GoldenScheduleBitIdenticalWithProfilingOn) {
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(with_prof(plain_config()));
  ASSERT_TRUE(prof::enabled());
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
}

TEST_F(ProfTest, NetScheduleIdenticalProfOnVsOff) {
  std::uint64_t fp_off = 0;
  {
    apps::SyntheticWorkload wl(net_workload());
    core::ClusterRuntime rt(net_config());
    EXPECT_FALSE(prof::enabled());
    fp_off = schedule_fingerprint(rt, rt.run(wl));
  }
  std::uint64_t fp_on = 0;
  {
    apps::SyntheticWorkload wl(net_workload());
    core::ClusterRuntime rt(with_prof(net_config()));
    EXPECT_TRUE(prof::enabled());
    fp_on = schedule_fingerprint(rt, rt.run(wl));
  }
  EXPECT_EQ(fp_on, fp_off);
}

// --- phase tree --------------------------------------------------------------

TEST_F(ProfTest, PhaseTreeInvariantsHold) {
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(with_prof(net_config()));
  rt.run(wl);

  auto& p = prof::Profiler::instance();
  const std::vector<prof::PhaseNode>& nodes = p.phases();
  ASSERT_FALSE(nodes.empty());

  // Per-node: time attributed to children never exceeds the node's own
  // inclusive time (exclusive_ns() clamps, so check the raw fields).
  std::vector<std::uint64_t> child_sum(nodes.size(), 0);
  for (const prof::PhaseNode& n : nodes) {
    EXPECT_GT(n.calls, 0u) << n.name;
    EXPECT_LE(n.child_ns, n.inclusive_ns) << n.name;
    EXPECT_EQ(n.exclusive_ns(), n.inclusive_ns - n.child_ns) << n.name;
    if (n.parent >= 0) {
      child_sum[static_cast<std::size_t>(n.parent)] += n.inclusive_ns;
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_LE(child_sum[i], nodes[i].inclusive_ns) << nodes[i].name;
    EXPECT_EQ(child_sum[i], nodes[i].child_ns) << nodes[i].name;
  }

  // The engine hot path and the solver must have been attributed.
  auto has = [&](const char* name) {
    for (const prof::PhaseNode& n : nodes) {
      if (std::strcmp(n.name, name) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("engine.pop"));
  EXPECT_TRUE(has("engine.dispatch"));
  EXPECT_TRUE(has("core.construct"));
  EXPECT_TRUE(has("core.start"));
  EXPECT_TRUE(has("sched.pick"));
  EXPECT_GT(p.total_ns("net.solve"), 0u);

  // Attribution never exceeds elapsed wall time.
  EXPECT_LE(p.attributed_ns(), p.wall_ns());
}

TEST_F(ProfTest, CollapsedStacksAreWellFormed) {
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(with_prof(plain_config()));
  rt.run(wl);

  const std::string folded = prof::Profiler::instance().collapsed_stacks();
  ASSERT_FALSE(folded.empty());
  std::size_t start = 0;
  bool saw_nested = false;
  while (start < folded.size()) {
    std::size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    // "<path>[;<path>...] <micros>" — one space, positive integer value.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    EXPECT_NE(line.front(), ';') << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    for (char c : value) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_GT(std::stoull(value), 0u) << line;
    if (line.find(';') != std::string::npos) saw_nested = true;
  }
  EXPECT_TRUE(saw_nested);  // dispatch work nests under engine.dispatch
}

// --- allocation accounting ---------------------------------------------------

// Run with no span backend, the in-memory collector and the spill file:
// the span recorder's open-span charges and each store's own are all
// released with the rest.
TEST_F(ProfTest, AllocCountersBalanceToZeroAfterTeardown) {
  const std::string path = "prof_test_spans.stream";
  for (const char* spans : {"off", "collector", "stream"}) {
    SCOPED_TRACE(spans);
    prof::Profiler::instance().reset();
    {
      core::RuntimeConfig cfg = with_prof(net_config());
      cfg.obs.spans = std::strcmp(spans, "collector") == 0;
      cfg.obs.stream.enabled = std::strcmp(spans, "stream") == 0;
      cfg.obs.stream.path = path;
      apps::SyntheticWorkload wl(net_workload());
      core::ClusterRuntime rt(cfg);
      rt.run(wl);
      // Mid-run charges were made: peaks must be visible with the runtime
      // still alive.
      bool any_peak = false;
      for (const prof::TagStats& t :
           prof::Profiler::instance().alloc_stats()) {
        if (t.peak_bytes > 0) any_peak = true;
      }
      EXPECT_TRUE(any_peak);
    }
    // Every charge released: destructors return exactly what was noted.
    for (const prof::TagStats& t : prof::Profiler::instance().alloc_stats()) {
      EXPECT_EQ(t.alive_bytes, 0) << t.tag;
      EXPECT_GE(t.peak_bytes, 0) << t.tag;
    }
    // The tags this workload exercises all saw traffic.
    auto peak_of = [](const char* tag) {
      for (const prof::TagStats& t :
           prof::Profiler::instance().alloc_stats()) {
        if (std::strcmp(t.tag, tag) == 0) return t.peak_bytes;
      }
      return std::int64_t{-1};
    };
    EXPECT_GT(peak_of("sim.event"), 0);
    EXPECT_GT(peak_of("nanos.task"), 0);
    EXPECT_GT(peak_of("net.flow"), 0);
    EXPECT_GT(peak_of("core.exec"), 0);
    EXPECT_GT(peak_of("core.pending"), 0);
    EXPECT_GT(peak_of("trace.mark"), 0);
    EXPECT_GT(peak_of("trace.series"), 0);
    EXPECT_EQ(peak_of("obs.span") > 0, std::strcmp(spans, "off") != 0);
  }
  std::remove(path.c_str());
}

// A streamed run's spill is its mark record: the recorder charges only
// the interned labels to trace.mark, so the tag's peak is the same for a
// run twice as long. The collector keeps every mark, so its peak grows.
TEST_F(ProfTest, StreamedMarkPeakDoesNotGrowWithRunLength) {
  const std::string path = "prof_test_marks.stream";
  struct Sample {
    std::uint64_t marks = 0;
    std::int64_t peak = 0;
  };
  const auto run = [&path](bool stream, int iterations) {
    prof::Profiler::instance().reset();
    // A fat-tree with thin uplinks congests in every iteration.
    core::RuntimeConfig cfg = with_prof(net_config());
    cfg.cluster = sim::ClusterSpec::homogeneous(8, 4);
    cfg.degree = 3;
    cfg.net.uplink_bandwidth = 2e8;
    cfg.obs.spans = !stream;
    cfg.obs.stream.enabled = stream;
    cfg.obs.stream.path = path;
    apps::SyntheticConfig wcfg;
    wcfg.appranks = 8;
    wcfg.iterations = iterations;
    wcfg.tasks_per_rank = 40;
    wcfg.imbalance = 2.5;
    wcfg.bytes_per_task = 4 << 20;
    apps::SyntheticWorkload wl(wcfg);
    Sample s;
    {
      core::ClusterRuntime rt(cfg);
      rt.run(wl);
      s.marks = rt.recorder().mark_count();
    }
    for (const prof::TagStats& t : prof::Profiler::instance().alloc_stats()) {
      if (std::strcmp(t.tag, "trace.mark") == 0) s.peak = t.peak_bytes;
    }
    return s;
  };
  const int base = 3;
  const Sample stream_1x = run(true, base);
  const Sample stream_2x = run(true, 2 * base);
  ASSERT_GT(stream_1x.marks, 0u);
  ASSERT_GT(stream_2x.marks, stream_1x.marks);  // the longer run marks more
  EXPECT_GT(stream_1x.peak, 0);                 // the label pool
  EXPECT_EQ(stream_2x.peak, stream_1x.peak);

  const Sample collector_1x = run(false, base);
  const Sample collector_2x = run(false, 2 * base);
  EXPECT_EQ(collector_1x.marks, stream_1x.marks);
  EXPECT_EQ(collector_2x.marks, stream_2x.marks);
  EXPECT_GT(collector_2x.peak, collector_1x.peak);
  std::remove(path.c_str());
}

// --- health snapshots --------------------------------------------------------

TEST_F(ProfTest, SnapshotsRecordEngineHealth) {
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(with_prof(net_config(), /*stride=*/64));
  const core::RunResult r = rt.run(wl);

  auto& p = prof::Profiler::instance();
  const std::vector<prof::HealthSnapshot>& snaps = p.snapshots();
  ASSERT_FALSE(snaps.empty());
  std::uint64_t prev_events = 0;
  for (const prof::HealthSnapshot& s : snaps) {
    EXPECT_GT(s.events_fired, prev_events);
    prev_events = s.events_fired;
    EXPECT_GE(s.wall_s, 0.0);
    EXPECT_GE(s.events_per_sec, 0.0);
    EXPECT_GE(s.rss_mb, 0.0);      // zero off-Linux, positive otherwise
    EXPECT_GE(s.rss_hwm_mb, 0.0);
    EXPECT_GE(s.attributed_ns, s.solve_ns);
  }
  EXPECT_LE(snaps.back().events_fired, r.events_fired);
}

TEST_F(ProfTest, SnapshotBufferSelfThins) {
  // Stride 1 on a run with thousands of events would record one snapshot
  // per event without the cap; thinning must keep the buffer bounded and
  // grow the stride instead.
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(with_prof(plain_config(), /*stride=*/1));
  rt.run(wl);

  auto& p = prof::Profiler::instance();
  EXPECT_LE(p.snapshots().size(), 512u);
  EXPECT_GT(p.snapshot_stride(), 1u);
}

TEST_F(ProfTest, OpenSpansGaugeSurvivesAnOlderRuntimesTeardown) {
  // Shared-engine jobs die in any order; an older runtime's destructor
  // must not clear the gauge a newer runtime registered.
  auto& p = prof::Profiler::instance();
  core::RuntimeConfig cfg = with_prof(plain_config());
  cfg.obs.spans = true;
  auto older = std::make_unique<core::ClusterRuntime>(cfg);
  apps::SyntheticWorkload wl(plain_workload());
  {
    core::ClusterRuntime newer(cfg);
    newer.start(wl);  // creates the first iteration's tasks: spans open
    const auto open =
        static_cast<std::int64_t>(newer.spans()->open_spans());
    ASSERT_GT(open, 0);
    older.reset();
    p.sample(0, 0);
    EXPECT_EQ(p.snapshots().back().open_spans, open);
  }
  p.sample(0, 0);
  EXPECT_EQ(p.snapshots().back().open_spans, -1) << "gauge left dangling";
}

TEST_F(ProfTest, JsonExportHasExpectedShape) {
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(with_prof(net_config(), /*stride=*/64));
  rt.run(wl);

  const std::string json = prof::Profiler::instance().to_json();
  for (const char* key :
       {"\"wall_s\"", "\"attributed_ns\"", "\"unattributed_share\"",
        "\"phases\"", "\"alloc\"", "\"snapshot_stride\"", "\"snapshots\"",
        "\"path\"", "\"calls\"", "\"inclusive_ns\"", "\"exclusive_ns\"",
        "\"tag\"", "\"alive_bytes\"", "\"peak_bytes\"",
        "\"events_per_sec\"", "\"queue_depth\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// --- disabled path -----------------------------------------------------------

TEST_F(ProfTest, DisabledPathRecordsNothing) {
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(net_config());  // prof off (default)
  rt.run(wl);

  auto& p = prof::Profiler::instance();
  EXPECT_FALSE(prof::enabled());
  EXPECT_TRUE(p.phases().empty());
  EXPECT_TRUE(p.snapshots().empty());
  for (const prof::TagStats& t : p.alloc_stats()) {
    EXPECT_EQ(t.alive_bytes, 0) << t.tag;
    EXPECT_EQ(t.peak_bytes, 0) << t.tag;
    EXPECT_EQ(t.allocs, 0u) << t.tag;
    EXPECT_EQ(t.frees, 0u) << t.tag;
  }
  // Scopes constructed while disabled never touch the tree.
  { PROF_SCOPE("test.should_not_record"); }
  EXPECT_TRUE(p.phases().empty());
}

TEST_F(ProfTest, PeakRssIsNeverBelowCurrentRss) {
  // Touch every page of a fresh 32 MB buffer, so the resident set grows
  // just before it is read; the high-water mark must already cover it.
  // The second round grows past a peak already recorded, where a lazily
  // updated high-water mark (getrusage's ru_maxrss) reads low.
  for (int round = 0; round < 2; ++round) {
    std::vector<char> buffer(std::size_t{32} << 20);
    volatile char* pages = buffer.data();
    for (std::size_t i = 0; i < buffer.size(); i += 4096) pages[i] = 1;
    const double current = prof::current_rss_mb();
    const double peak = prof::peak_rss_mb();
    EXPECT_GT(current, 32.0) << "round " << round;
    EXPECT_GE(peak, current) << "round " << round;
  }
}

}  // namespace
