// Tests of the observability subsystem (tlb::obs): Chrome trace export
// invariants (valid JSON, monotone timestamps, B/E pairing), POP
// efficiency agreement with TALP, critical-path breakdown, typed trace
// marks / Paraver export, and the determinism contract (span collection
// keeps schedules bit-identical to the golden fingerprints).
#include <functional>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "apps/nbody/workload.hpp"
#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "critical_path_oracle.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fingerprint.hpp"
#include "nanos/dependency_graph.hpp"
#include "obs/critical_path.hpp"
#include "obs/pop.hpp"
#include "obs/span.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/paraver.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace tlb;
using namespace tlb::golden;

// --- golden fingerprints (determinism contract) -------------------------------

// The golden runs and fingerprints are shared (tests/fingerprint.hpp); span
// collection must not move them (it records, it never schedules).
TEST(ObsDeterminism, SpanCollectionKeepsPlainScheduleBitIdentical) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
  ASSERT_NE(rt.spans(), nullptr);
  EXPECT_EQ(rt.spans()->spans().size(), rt.tasks().size());
}

TEST(ObsDeterminism, SpanCollectionKeepsNetScheduleBitIdentical) {
  core::RuntimeConfig cfg = net_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenNet);
}

// --- span lifecycle ----------------------------------------------------------

TEST(Spans, EveryTaskGetsACompleteLifecycle) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  ASSERT_NE(rt.spans(), nullptr);
  const auto& spans = rt.spans()->spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(r.tasks_total));
  for (const auto& s : spans) {
    EXPECT_NE(s.id, nanos::kNoTask);
    EXPECT_GE(s.created_at, 0.0);
    EXPECT_GE(s.ready_at, s.created_at);
    EXPECT_GE(s.done_at, s.ready_at);
    ASSERT_FALSE(s.attempts.empty());
    const auto* at = s.final_attempt();
    EXPECT_GE(at->scheduled_at, s.ready_at);
    EXPECT_GE(at->exec_start, at->scheduled_at);
    EXPECT_GE(at->exec_end, at->exec_start);
    EXPECT_LE(at->exec_end, s.done_at);
    EXPECT_FALSE(at->rescued);
  }
}

// --- Chrome trace export -----------------------------------------------------

TEST(ChromeTrace, TimestampsMonotoneAndBeginEndPaired) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  const auto events = trace::chrome_events(*rt.spans(), rt.recorder());
  ASSERT_FALSE(events.empty());
  std::int64_t last_ts = 0;
  std::map<std::string, int> open;  // (pid, tid, name) -> open B count
  int durations = 0;
  for (const auto& e : events) {
    if (e.ph == 'M') continue;  // metadata precedes the timeline
    EXPECT_GE(e.ts_us, last_ts);
    last_ts = e.ts_us;
    const std::string key = std::to_string(e.pid) + "/" +
                            std::to_string(e.tid) + "/" + e.name;
    if (e.ph == 'B') {
      ++open[key];
      ++durations;
    } else if (e.ph == 'E') {
      EXPECT_GT(open[key], 0) << "E without matching B: " << key;
      --open[key];
    }
  }
  EXPECT_GT(durations, 0);
  for (const auto& [key, n] : open) {
    EXPECT_EQ(n, 0) << "unclosed B: " << key;
  }
}

TEST(ChromeTrace, JsonIsBalancedAndEscaped) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  const std::string j = trace::chrome_trace_json(*rt.spans(), rt.recorder());
  EXPECT_EQ(j.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(j.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control character at offset " << i;
    if (c == '"' && (i == 0 || j[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- POP efficiency report ---------------------------------------------------

TEST(Pop, ParallelEfficiencyMatchesTalpAggregate) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  const obs::PopReport pop = rt.pop();

  double total_busy = 0.0;
  for (int w = 0; w < rt.talp().worker_count(); ++w) {
    total_busy += rt.talp().busy_core_seconds(w);
  }
  const double total_cores = 4 * 8;
  const double talp_pe = total_busy / (total_cores * r.makespan);
  EXPECT_NEAR(pop.parallel_efficiency, talp_pe, 1e-9);

  EXPECT_GT(pop.parallel_efficiency, 0.0);
  EXPECT_LE(pop.parallel_efficiency, 1.0 + 1e-9);
  EXPECT_GT(pop.load_balance, 0.0);
  EXPECT_LE(pop.load_balance, 1.0 + 1e-9);
  // The multiplicative POP model: PE = LB x CommE.
  EXPECT_NEAR(pop.parallel_efficiency,
              pop.load_balance * pop.communication_efficiency, 1e-9);
  // No fabric + spans on: transfer waits exist but stay a small fraction.
  EXPECT_LE(pop.transfer_efficiency, 1.0 + 1e-9);
  EXPECT_GT(pop.transfer_efficiency, 0.5);
  ASSERT_EQ(pop.appranks.size(), 8u);
  double busy_sum = 0.0;
  for (const auto& row : pop.appranks) busy_sum += row.busy_core_seconds;
  EXPECT_NEAR(busy_sum, total_busy, 1e-9);
  const std::string rendered = obs::render_pop(pop);
  EXPECT_NE(rendered.find("parallel efficiency"), std::string::npos);
}

// --- critical path -----------------------------------------------------------

TEST(CriticalPath, BreakdownSumsToLength) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  const obs::CriticalPath cp = obs::critical_path(*rt.spans());
  ASSERT_FALSE(cp.chain.empty());
  EXPECT_GT(cp.length, 0.0);
  EXPECT_LE(cp.length, r.makespan + 1e-9);
  EXPECT_GE(cp.compute, 0.0);
  EXPECT_GE(cp.transfer, 0.0);
  EXPECT_GE(cp.wait, 0.0);
  EXPECT_NEAR(cp.compute + cp.transfer + cp.wait, cp.length, 1e-9);
  EXPECT_GT(cp.compute, 0.0);
  // The chain walks forward in completion time.
  double prev = -1.0;
  for (const nanos::TaskId id : cp.chain) {
    const double d = rt.spans()->span(id).done_at;
    EXPECT_GE(d, prev);
    prev = d;
  }
  const std::string rendered = obs::render_critical_path(cp);
  EXPECT_NE(rendered.find("Critical path"), std::string::npos);
}

TEST(CriticalPath, EmptyCollectorYieldsEmptyPath) {
  obs::SpanCollector spans;
  const obs::CriticalPath cp = obs::critical_path(spans);
  EXPECT_EQ(cp.length, 0.0);
  EXPECT_TRUE(cp.chain.empty());
}

// --- critical path against the successor-walk oracle ---------------------------

struct OracleRun {
  core::RunResult result;
  std::uint64_t fingerprint = 0;
  std::size_t with_predecessor = 0;  ///< tasks with a dependency edge in
};

/// Runs `wl` on `cfg` with spans on (and the faults `plan` builds for the
/// runtime, if any), then expects the span-based critical path to equal
/// the oracle's bit for bit, and every span's release id to be the
/// oracle's releasing predecessor.
OracleRun check_against_oracle(
    core::RuntimeConfig cfg, core::Workload& wl,
    const std::function<fault::FaultPlan(const core::ClusterRuntime&)>&
        plan = {}) {
  cfg.obs.spans = true;
  core::ClusterRuntime rt(cfg);
  fault::FaultInjector injector(plan ? plan(rt) : fault::FaultPlan());
  injector.attach(rt);
  obs::oracle::CriticalPathOracle oracle;
  oracle.observe(rt);
  OracleRun out;
  out.result = rt.run(wl);
  out.fingerprint = core::schedule_fingerprint(rt, out.result);
  out.with_predecessor = oracle.tasks_with_predecessor();

  const obs::SpanCollector& spans = *rt.spans();
  const obs::CriticalPath cp = obs::critical_path(spans);
  EXPECT_FALSE(cp.chain.empty());
  obs::oracle::expect_same_path(cp, oracle.compute(spans));
  const std::vector<nanos::TaskId> pred = oracle.releasing_predecessors(spans);
  EXPECT_EQ(pred.size(), spans.spans().size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (spans.spans()[i].released_by != pred[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  return out;
}

TEST(CriticalPathOracle, MatchesOnTheGoldenRuns) {
  apps::SyntheticWorkload plain(plain_workload());
  EXPECT_EQ(check_against_oracle(plain_config(), plain).fingerprint,
            kGoldenPlain);
  apps::SyntheticWorkload net(net_workload());
  EXPECT_EQ(check_against_oracle(net_config(), net).fingerprint, kGoldenNet);
}

// nbody's update tasks read what its force tasks wrote: about half the
// tasks have a dependency predecessor, so the path follows data edges.
TEST(CriticalPathOracle, MatchesOnNbodyWithDependencyEdges) {
  apps::nbody::NBodyConfig ncfg;
  ncfg.appranks = 8;
  ncfg.iterations = 3;
  apps::nbody::NBodyWorkload wl(ncfg);
  const OracleRun run = check_against_oracle(plain_config(), wl);
  EXPECT_GT(run.with_predecessor, 0u);
}

// The Resil.HeartbeatDetectsCrashAndRecovers run: a helper crashes, the
// heartbeats detect it and its voided tasks are rescued and re-executed.
TEST(CriticalPathOracle, MatchesUnderCrashRescueAndReexecution) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 16);
  cfg.appranks_per_node = 1;
  cfg.degree = 3;
  cfg.policy = core::PolicyKind::Global;
  cfg.resil.detection = resil::DetectionMode::Heartbeat;
  apps::SyntheticConfig scfg;
  scfg.appranks = 4;
  scfg.iterations = 8;
  scfg.tasks_per_rank = 240;
  scfg.imbalance = 2.5;
  apps::SyntheticWorkload clean(scfg);
  const double crash_at = core::ClusterRuntime(cfg).run(clean).makespan * 0.45;

  apps::SyntheticWorkload wl(scfg);
  const OracleRun run =
      check_against_oracle(cfg, wl, [&](const core::ClusterRuntime& rt) {
        return fault::FaultPlan().crash_worker(
            rt.topology().workers_of_apprank(0)[1], crash_at);
      });
  EXPECT_EQ(run.result.detections, 1u);
  EXPECT_GT(run.result.tasks_reexecuted, 0u);
}

// Two predecessors complete at the same instant. Whichever of them
// finishes second releases the task, yet the release id is the lower one,
// as in the oracle's walk: the graph weighs every edge, not only the
// releasing one.
TEST(CriticalPathOracle, SameInstantTieGoesToTheLowerId) {
  for (const nanos::TaskId first : {nanos::TaskId{0}, nanos::TaskId{1}}) {
    SCOPED_TRACE(first == 0 ? "higher id releases" : "lower id releases");
    nanos::TaskPool pool;
    nanos::DependencyGraph graph(pool);
    obs::SpanCollector spans;
    obs::oracle::CriticalPathOracle oracle;
    pool.set_retire_observer([&](const nanos::Task& t) { oracle.record(t); });
    // Tasks 0 and 1 each write a block; task 2 reads both.
    pool.create(0, 1.0, {{0, 8, nanos::AccessMode::Out}});
    pool.create(0, 1.0, {{8, 8, nanos::AccessMode::Out}});
    pool.create(0, 2.0, {{0, 16, nanos::AccessMode::In}});
    for (nanos::TaskId id = 0; id < 3; ++id) {
      spans.task_created(id, 0, 0.0);
      if (graph.register_task(id)) spans.task_ready(id, nanos::kNoTask, 0.0);
    }
    auto run = [&](nanos::TaskId id, sim::SimTime start, sim::SimTime end) {
      spans.task_scheduled(id, 0, 0, false, start);
      spans.exec_begin(id, 0, 0, static_cast<int>(id), start);
      spans.exec_end(id, end);
      spans.task_done(id, end);
      return graph.on_task_finished(id, end);
    };
    EXPECT_TRUE(run(first, 0.0, 1.0).empty());
    EXPECT_EQ(run(1 - first, 0.0, 1.0), (std::vector<nanos::TaskId>{2}));
    EXPECT_EQ(pool.get(2).released_by, 0u);
    spans.task_ready(2, pool.get(2).released_by, 1.0);
    run(2, 1.0, 3.0);
    spans.close();
    pool.retire_below(3);

    const obs::CriticalPath cp = obs::critical_path(spans);
    EXPECT_EQ(cp.chain, (std::vector<nanos::TaskId>{0, 2}));
    obs::oracle::expect_same_path(cp, oracle.compute(spans));
  }
}

// --- typed trace marks -------------------------------------------------------

TEST(RecorderMarks, OutOfOrderMarkAssertsInDebugAndClampsInRelease) {
  trace::Recorder rec(1, 1);
  rec.mark(1.0, trace::MarkKind::Generic, 0, "first");
  EXPECT_DEBUG_DEATH(rec.mark(0.5, trace::MarkKind::Generic, 0, "earlier"),
                     "");
#ifdef NDEBUG
  // Release build: the statement above executed and clamped.
  ASSERT_EQ(rec.marks().size(), 2u);
  EXPECT_EQ(rec.marks()[1].t, 1.0);
  EXPECT_EQ(rec.marks()[1].label, "earlier");
#endif
}

TEST(RecorderMarks, TypedMarksCarryKindAndValue) {
  trace::Recorder rec(2, 1);
  rec.mark(0.5, trace::MarkKind::NetCongestion, 7, "net congestion: spine0");
  rec.mark(0.9, trace::MarkKind::NetCleared, 7, "net cleared: spine0");
  ASSERT_EQ(rec.marks().size(), 2u);
  EXPECT_EQ(rec.marks()[0].kind, trace::MarkKind::NetCongestion);
  EXPECT_EQ(rec.marks()[0].value, 7);
  EXPECT_EQ(rec.marks()[0].label, "net congestion: spine0");
  EXPECT_EQ(rec.marks()[1].kind, trace::MarkKind::NetCleared);
}

// A mark is a fixed-size record whose label views the recorder's pool, so
// the recorder may not be copied away from its pool. A span store is not
// copyable either: a copy would store every later span twice.
static_assert(sizeof(trace::Mark) <= 40);
static_assert(!std::is_copy_constructible_v<trace::Recorder>);
static_assert(!std::is_copy_assignable_v<trace::Recorder>);
static_assert(!std::is_copy_constructible_v<obs::SpanCollector>);
static_assert(!std::is_copy_assignable_v<obs::SpanCollector>);

TEST(RecorderMarks, EqualLabelsShareOnePooledCopy) {
  trace::Recorder rec(1, 1);
  const std::string first = "net congestion: spine0";
  rec.mark(0.1, trace::MarkKind::NetCongestion, 0, first);
  rec.mark(0.2, trace::MarkKind::NetCleared, 0, "net cleared: spine0");
  rec.mark(0.3, trace::MarkKind::NetCongestion, 0,
           std::string("net congestion: ") + "spine0");
  const std::vector<trace::Mark>& marks = rec.marks();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0].label, first);
  EXPECT_NE(marks[0].label.data(), first.data());  // the pool's own copy
  EXPECT_EQ(marks[0].label.data(), marks[2].label.data());
  EXPECT_NE(marks[0].label.data(), marks[1].label.data());
  EXPECT_EQ(rec.distinct_labels(), 2u);
}

TEST(RecorderMarks, ManyMarksOverFewLabelsReadBackIntact) {
  // Long labels (heap) and short ones (inline in the pool's node), over
  // enough marks to grow the mark vector and rehash the pool many times.
  constexpr int kLabels = 320;
  constexpr int kMarks = 100000;
  const auto label_of = [](int i) {
    // Appended piecewise: GCC 12 at -O3 raises a false -Wrestrict on
    // `"literal" + std::to_string(...)`.
    std::string label = i % 3 == 0 ? "l" : "net congestion: leaf";
    label += std::to_string(i);
    if (i % 3 != 0) {
      label += "->spine";
      label += std::to_string(i % 7);
    }
    return label;
  };
  trace::Recorder rec(1, 1);
  for (int i = 0; i < kMarks; ++i) {
    rec.mark(i * 1e-6, trace::MarkKind::Generic, i % kLabels,
             label_of(i % kLabels));
  }
  ASSERT_EQ(rec.marks().size(), static_cast<std::size_t>(kMarks));
  EXPECT_EQ(rec.distinct_labels(), static_cast<std::size_t>(kLabels));
  int wrong = 0;
  std::set<const char*> copies;
  for (const trace::Mark& m : rec.marks()) {
    if (m.label != label_of(static_cast<int>(m.value))) ++wrong;
    copies.insert(m.label.data());
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(copies.size(), static_cast<std::size_t>(kLabels));
}

TEST(Paraver, TypedMarksExportAsDedicatedEventTypes) {
  trace::Recorder rec(1, 1);
  rec.busy_delta(0.0, 0, 0, 1);
  rec.mark(0.25, trace::MarkKind::SchedSteer, 2,
           "sched steer: task 3 -> worker 2");
  rec.mark(0.5, trace::MarkKind::NetCongestion, 0, "net congestion: nic0");
  rec.mark(0.75, trace::MarkKind::Generic, 0, "plain mark");  // no type
  rec.mark(0.8, trace::MarkKind::FaultInjected, 0, "slowdown");  // no type
  const std::string prv = trace::to_paraver(rec, 1.0);
  EXPECT_NE(prv.find(":90000003:2\n"), std::string::npos);
  EXPECT_NE(prv.find(":90000005:0\n"), std::string::npos);
  EXPECT_EQ(prv.find("90000004"), std::string::npos);

  const std::string pcf = trace::paraver_pcf();
  for (int type = 90000001; type <= 90000006; ++type) {
    EXPECT_NE(pcf.find(std::to_string(type)), std::string::npos)
        << "pcf misses event type " << type;
  }
  EXPECT_NE(pcf.find("EVENT_TYPE"), std::string::npos);
}

// --- fabric congestion events ------------------------------------------------

TEST(Spans, NetModeRecordsTransfersAndCongestionInstants) {
  core::RuntimeConfig cfg = net_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  ASSERT_NE(rt.spans(), nullptr);
  bool saw_transfer = false;
  for (const auto& s : rt.spans()->spans()) {
    const auto* at = s.final_attempt();
    if (at != nullptr && at->transfer_start >= 0.0) {
      EXPECT_GE(at->transfer_end, at->transfer_start);
      EXPECT_GT(at->transfer_bytes, 0u);
      saw_transfer = true;
    }
  }
  EXPECT_TRUE(saw_transfer);
  EXPECT_GT(rt.spans()->transfer_wait_core_seconds(), 0.0);
}

}  // namespace
