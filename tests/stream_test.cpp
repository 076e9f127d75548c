// Tests of the bounded-memory streaming telemetry backend (tlb::stream):
// determinism (golden schedule fingerprints unchanged with the stream
// backend on), exporter equivalence (the reader-reconstructed view
// produces byte-identical Chrome traces and flame folds as the
// in-memory collector, with and without a crash),
// one Chrome event per rescue in either backend, one timeline of marks
// read by every exporter (kept in the spill only when streaming), the
// bounded working set, windowed metric snapshots, and spill-file
// validation diagnostics (truncation / corruption throw with the exact
// byte offset).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fingerprint.hpp"
#include "metrics/recovery.hpp"
#include "obs/flame.hpp"
#include "obs/span.hpp"
#include "stream_reader.hpp"
#include "stream/sink.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/paraver.hpp"

namespace {

using namespace tlb;
using namespace tlb::golden;

// The golden runs and fingerprints are shared (tests/fingerprint.hpp); the
// stream backend only records — it must not move them.

/// Spill files land in the test's working directory and are removed by
/// the fixture that created them.
std::string spill_path(const char* name) {
  return std::string("stream_test_") + name + ".stream";
}

core::RuntimeConfig with_stream(core::RuntimeConfig cfg,
                                const std::string& path) {
  cfg.obs.stream.enabled = true;
  cfg.obs.stream.path = path;
  return cfg;
}

/// Marks `into` with every instant of a read-back spill, in order. The
/// spill keeps no kind or value, so each becomes a Generic mark of 0.
void replay_marks(const stream::StreamReader& reader, trace::Recorder& into) {
  for (const stream::SpilledInstant& i : reader.instants()) {
    into.mark(i.t, trace::MarkKind::Generic, 0, i.name);
  }
}

// --- determinism contract ----------------------------------------------------

TEST(StreamDeterminism, KeepsPlainScheduleBitIdentical) {
  const std::string path = spill_path("golden_plain");
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(with_stream(plain_config(), path));
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
  // Streaming replaces the collector; the view is rebuilt from the file.
  EXPECT_EQ(rt.spans(), nullptr);
  ASSERT_NE(rt.stream_sink(), nullptr);
  EXPECT_EQ(rt.stream_sink()->spans_spilled(), rt.tasks().size());
  std::remove(path.c_str());
}

TEST(StreamDeterminism, KeepsNetScheduleBitIdentical) {
  const std::string path = spill_path("golden_net");
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(with_stream(net_config(), path));
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenNet);
  std::remove(path.c_str());
}

// --- exporter equivalence ----------------------------------------------------

/// One run to record with either span backend: the runtime and workload
/// configs, plus an optional crash of apprank 0's second worker.
struct Scenario {
  const char* name;
  core::RuntimeConfig config;
  apps::SyntheticConfig workload;
  double crash_at = -1.0;  ///< < 0: fault-free
};

Scenario net_scenario() { return {"net", net_config(), net_workload()}; }

/// The Resil.HeartbeatDetectsCrashAndRecovers setup: a helper crashes
/// mid-run, heartbeats detect it, and its voided tasks are rescued.
Scenario heartbeat_crash_scenario() {
  Scenario s{"heartbeat crash", {}, {}};
  s.config.cluster = sim::ClusterSpec::homogeneous(4, 16);
  s.config.appranks_per_node = 1;
  s.config.degree = 3;
  s.config.policy = core::PolicyKind::Global;
  s.config.resil.detection = resil::DetectionMode::Heartbeat;
  s.workload.appranks = 4;
  s.workload.iterations = 8;
  s.workload.tasks_per_rank = 240;
  s.workload.imbalance = 2.5;
  apps::SyntheticWorkload clean(s.workload);
  s.crash_at = core::ClusterRuntime(s.config).run(clean).makespan * 0.45;
  return s;
}

core::RunResult run_scenario(core::ClusterRuntime& rt, const Scenario& s) {
  apps::SyntheticWorkload wl(s.workload);
  fault::FaultPlan plan;
  if (s.crash_at >= 0.0) {
    plan.crash_worker(rt.topology().workers_of_apprank(0)[1], s.crash_at);
  }
  fault::FaultInjector injector(std::move(plan));
  injector.attach(rt);
  return rt.run(wl);
}

// The whole point of the reader: every existing exporter must see the
// same run through a reconstructed spill as through the live collector,
// with and without crash rescues.
TEST(StreamEquivalence, ExportersMatchCollectorByteForByte) {
  for (const Scenario& s : {net_scenario(), heartbeat_crash_scenario()}) {
    SCOPED_TRACE(s.name);
    // Collector run.
    core::RuntimeConfig ccfg = s.config;
    ccfg.obs.spans = true;
    core::ClusterRuntime crt(ccfg);
    const auto cr = run_scenario(crt, s);
    ASSERT_NE(crt.spans(), nullptr);

    // Identical run, stream backend.
    const std::string path = spill_path("equivalence");
    core::ClusterRuntime srt(with_stream(s.config, path));
    const auto sr = run_scenario(srt, s);
    ASSERT_EQ(sr.makespan, cr.makespan);
    if (s.crash_at >= 0.0) {
      EXPECT_EQ(cr.workers_crashed, 1u);
    }

    const stream::StreamReader reader(path);
    const obs::SpanCollector& from_file = reader.spans();
    const obs::SpanCollector& live = *crt.spans();

    trace::Recorder file_marks(crt.topology().node_count(),
                               crt.topology().apprank_count(), false);
    replay_marks(reader, file_marks);
    EXPECT_EQ(trace::chrome_trace_json(from_file, file_marks),
              trace::chrome_trace_json(live, crt.recorder()));
    EXPECT_EQ(obs::collapsed_stacks_text(from_file),
              obs::collapsed_stacks_text(live));

    // Footer aggregates travel with the file.
    EXPECT_EQ(from_file.transfer_wait_core_seconds(),
              live.transfer_wait_core_seconds());
    EXPECT_EQ(from_file.rescues(), live.rescues());
    EXPECT_EQ(from_file.spans().size(), live.spans().size());
    EXPECT_EQ(reader.instants().size(), crt.recorder().marks().size());
    std::remove(path.c_str());
  }
}

// --- one timeline ------------------------------------------------------------

/// The congestion-policy fat-tree of CongestionPolicy.DeviatesFrom-
/// BaselineOnSaturatedFatTree: it steers, suppresses and congests.
core::RuntimeConfig congested_config() {
  core::RuntimeConfig cfg = net_config();
  cfg.cluster = sim::ClusterSpec::homogeneous(8, 4);
  cfg.degree = 3;
  cfg.net.uplink_bandwidth = 2e8;
  cfg.sched.policy = "congestion";
  return cfg;
}

apps::SyntheticConfig congested_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 8;
  cfg.iterations = 3;
  cfg.tasks_per_rank = 40;
  cfg.imbalance = 2.5;
  cfg.bytes_per_task = 4 << 20;
  return cfg;
}

/// Runs the congested scenario with a node slowdown (recovering) and a
/// helper crash planted on the timeline.
core::RunResult run_perturbed(core::ClusterRuntime& rt) {
  apps::SyntheticWorkload wl(congested_workload());
  fault::FaultPlan plan;
  plan.slow_node(/*node=*/1, 0.5, /*at=*/0.05, /*until=*/0.3);
  plan.crash_worker(rt.topology().workers_of_apprank(0)[1], /*at=*/0.1);
  fault::FaultInjector injector(std::move(plan));
  injector.attach(rt);
  return rt.run(wl);
}

int paraver_type(trace::MarkKind kind) {
  switch (kind) {
    case trace::MarkKind::SchedSteer:
      return trace::kParaverSchedSteerEvent;
    case trace::MarkKind::SchedSuppress:
      return trace::kParaverSchedSuppressEvent;
    case trace::MarkKind::NetCongestion:
      return trace::kParaverNetCongestionEvent;
    case trace::MarkKind::NetCleared:
      return trace::kParaverNetClearedEvent;
    case trace::MarkKind::Generic:
    case trace::MarkKind::FaultInjected:
      break;
  }
  return 0;
}

// Every runtime event is recorded once, and each exporter reads that
// record: Chrome instants carry every mark's label in mark order, Paraver
// carries every typed mark, the recovery analysis reports every injection
// mark, and the spill file holds one instant per mark. A streamed run's
// spill is its whole record: its recorder keeps no mark, only the count.
TEST(Timeline, EveryMarkReachesEveryExporter) {
  core::RuntimeConfig cfg = congested_config();
  cfg.obs.spans = true;
  core::ClusterRuntime rt(cfg);
  const core::RunResult r = run_perturbed(rt);
  const std::vector<trace::Mark>& marks = rt.recorder().marks();

  // The run exercises every emitting site.
  EXPECT_EQ(r.workers_crashed, 1u);
  const auto count = [&marks](trace::MarkKind kind) {
    return std::count_if(marks.begin(), marks.end(),
                         [kind](const trace::Mark& m) {
                           return m.kind == kind;
                         });
  };
  EXPECT_GT(count(trace::MarkKind::SchedSteer) +
                count(trace::MarkKind::SchedSuppress),
            0);
  EXPECT_GT(count(trace::MarkKind::NetCongestion), 0);
  ASSERT_EQ(count(trace::MarkKind::FaultInjected), 2);
  EXPECT_GT(count(trace::MarkKind::Generic), 0);  // the slowdown's recovery

  // Chrome: one global instant per mark, same labels, same order. Rescue
  // instants are span-derived and drawn on the attempt's own track.
  ASSERT_NE(rt.spans(), nullptr);
  std::vector<std::pair<std::int64_t, std::string>> chrome;
  for (const trace::ChromeEvent& e :
       trace::chrome_events(*rt.spans(), rt.recorder())) {
    if (e.ph == 'i' && e.name.rfind("rescue task ", 0) != 0) {
      chrome.emplace_back(e.ts_us, e.name);
    }
  }
  ASSERT_EQ(chrome.size(), marks.size());
  for (std::size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(chrome[i].second, marks[i].label) << "mark " << i;
    EXPECT_EQ(chrome[i].first,
              static_cast<std::int64_t>(marks[i].t * 1e6 + 0.5));
  }

  // Paraver: the typed marks, in order, as (type, value) events.
  const sim::SimTime end = std::max(r.makespan, marks.back().t);
  std::vector<std::pair<int, std::int64_t>> expected;
  for (const trace::Mark& m : marks) {
    if (const int type = paraver_type(m.kind)) {
      expected.emplace_back(type, m.value);
    }
  }
  std::vector<std::pair<int, std::int64_t>> exported;
  std::istringstream prv(trace::to_paraver(rt.recorder(), end));
  std::string line;
  std::getline(prv, line);  // header
  while (std::getline(prv, line)) {
    // 2:cpu:appl:task:thread:time:type:value
    std::vector<std::string> fields;
    std::istringstream in(line);
    for (std::string f; std::getline(in, f, ':');) fields.push_back(f);
    ASSERT_EQ(fields.size(), 8u) << line;
    const int type = std::stoi(fields[6]);
    if (type >= trace::kParaverSchedSteerEvent &&
        type <= trace::kParaverNetClearedEvent) {
      exported.emplace_back(type, std::stoll(fields[7]));
    }
  }
  EXPECT_EQ(exported, expected);

  // Recovery analysis: one report per injection mark.
  std::vector<trace::StepSeries> busy;
  for (int n = 0; n < rt.topology().node_count(); ++n) {
    busy.push_back(rt.recorder().node_busy(n));
  }
  const auto reports =
      metrics::recovery_reports(marks, busy, 0.0, r.makespan, 8, 1.10, 2);
  std::vector<std::pair<double, std::string>> injected;
  for (const trace::Mark& m : marks) {
    if (m.kind == trace::MarkKind::FaultInjected) {
      injected.emplace_back(m.t, m.label);
    }
  }
  ASSERT_EQ(reports.size(), injected.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].at, injected[i].first);
    EXPECT_EQ(reports[i].label, injected[i].second);
  }

  // Spill file: the same run with the stream backend spills one instant
  // per collector mark, same time and label in mark order, and keeps none
  // of them in memory.
  EXPECT_EQ(rt.recorder().mark_count(), marks.size());
  const std::string path = spill_path("timeline");
  core::ClusterRuntime srt(with_stream(congested_config(), path));
  run_perturbed(srt);
  EXPECT_TRUE(srt.recorder().marks().empty());
  EXPECT_EQ(srt.recorder().mark_count(), rt.recorder().mark_count());
  EXPECT_EQ(srt.recorder().distinct_labels(), rt.recorder().distinct_labels());
  const stream::StreamReader reader(path);
  const std::vector<stream::SpilledInstant>& instants = reader.instants();
  ASSERT_EQ(instants.size(), marks.size());
  for (std::size_t i = 0; i < instants.size(); ++i) {
    EXPECT_EQ(instants[i].t, marks[i].t) << "mark " << i;
    EXPECT_EQ(instants[i].name, marks[i].label) << "mark " << i;
  }
  std::remove(path.c_str());
}

/// FNV-1a 64 over a string's bytes.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The Chrome export of a collector run is pinned whole: its spans, its
// rescues and one global instant per timeline mark, in order. Where the
// marks are stored may change; what the exporter writes may not.
TEST(Timeline, ChromeTraceOfACollectorRunIsPinned) {
  core::RuntimeConfig cfg = congested_config();
  cfg.obs.spans = true;
  core::ClusterRuntime rt(cfg);
  run_perturbed(rt);
  ASSERT_NE(rt.spans(), nullptr);
  const std::vector<trace::ChromeEvent> events =
      trace::chrome_events(*rt.spans(), rt.recorder());
  const auto mark_instants =
      std::count_if(events.begin(), events.end(), [](const auto& e) {
        return e.ph == 'i' && e.name.rfind("rescue task ", 0) != 0;
      });
  EXPECT_EQ(static_cast<std::size_t>(mark_instants),
            rt.recorder().marks().size());
  EXPECT_EQ(mark_instants, 693);
  EXPECT_EQ(fnv1a(trace::chrome_trace_json(events)), 15653829422106799900ull);
}

// The spill keeps each mark's time and label but not its kind or value,
// so a Paraver trace of a streamed run would lose its typed marks without
// notice: the exporter refuses it instead. The Chrome exporter, which
// reads the recorder's marks too, refuses it the same way.
TEST(Timeline, ParaverRefusesAStreamedRecorder) {
  const std::string path = spill_path("paraver");
  core::ClusterRuntime srt(with_stream(congested_config(), path));
  const core::RunResult r = run_perturbed(srt);
  ASSERT_GT(srt.recorder().mark_count(), 0u);
  EXPECT_TRUE(srt.recorder().marks_spilled());
  EXPECT_THROW(trace::to_paraver(srt.recorder(), r.makespan),
               std::logic_error);
  EXPECT_THROW(trace::chrome_events(obs::SpanCollector{}, srt.recorder()),
               std::logic_error);
  std::remove(path.c_str());
}

// Congestion marks repeat one of two labels per link, and the recorder
// stores each label once: the pool holds one entry per distinct label,
// every mark of a label views the same pooled copy, and there are no more
// congestion labels than links have states.
TEST(Timeline, CongestionMarksShareOneLabelPerLinkState) {
  core::ClusterRuntime rt(congested_config());
  apps::SyntheticWorkload wl(congested_workload());
  rt.run(wl);
  ASSERT_NE(rt.fabric(), nullptr);
  const std::size_t links =
      static_cast<std::size_t>(rt.fabric()->topology().link_count());
  std::set<std::string_view> labels;
  std::set<const char*> copies;
  std::set<std::string_view> net_labels;
  std::size_t net_marks = 0;
  for (const trace::Mark& m : rt.recorder().marks()) {
    labels.insert(m.label);
    copies.insert(m.label.data());
    if (m.kind == trace::MarkKind::NetCongestion ||
        m.kind == trace::MarkKind::NetCleared) {
      ++net_marks;
      net_labels.insert(m.label);
    }
  }
  EXPECT_EQ(rt.recorder().distinct_labels(), labels.size());
  EXPECT_EQ(copies.size(), labels.size());
  EXPECT_GT(net_marks, net_labels.size());  // some label repeats
  EXPECT_LE(net_labels.size(), 2 * links);
}

// A rescue is drawn once, on the voided attempt's track — not a second
// time as a global instant.
TEST(SpanRescues, ChromeTraceHasOneEventPerRescue) {
  const Scenario s = heartbeat_crash_scenario();
  core::RuntimeConfig cfg = s.config;
  cfg.obs.spans = true;
  core::ClusterRuntime crt(cfg);
  run_scenario(crt, s);
  const std::string path = spill_path("rescues");
  core::ClusterRuntime srt(with_stream(s.config, path));
  run_scenario(srt, s);
  const stream::StreamReader reader(path);
  trace::Recorder file_marks(crt.topology().node_count(),
                             crt.topology().apprank_count(), false);
  replay_marks(reader, file_marks);

  const std::pair<const obs::SpanCollector*, const trace::Recorder*> runs[] =
      {{crt.spans(), &crt.recorder()}, {&reader.spans(), &file_marks}};
  for (const auto& [spans, marks] : runs) {
    ASSERT_NE(spans, nullptr);
    ASSERT_GT(spans->rescues(), 0u);
    std::uint64_t rescue_events = 0;
    for (const trace::ChromeEvent& e : trace::chrome_events(*spans, *marks)) {
      if (e.name.rfind("rescue task ", 0) == 0) ++rescue_events;
    }
    EXPECT_EQ(rescue_events, spans->rescues());
  }
  std::remove(path.c_str());
}

// --- bounded working set -----------------------------------------------------

TEST(StreamSinkMemory, WorkingSetBoundedByInFlightTasks) {
  const std::string path = spill_path("bounded");
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(with_stream(plain_config(), path));
  const auto r = rt.run(wl);
  const stream::StreamSink* sink = rt.stream_sink();
  ASSERT_NE(sink, nullptr);
  // Everything finished: nothing resident, every span on disk.
  EXPECT_EQ(sink->open_spans(), 0u);
  EXPECT_EQ(sink->spans_spilled(),
            static_cast<std::uint64_t>(r.tasks_total));
  // The high-water mark is the in-flight task count, not the total: a
  // barrier-paced run keeps at most one iteration's tasks open at once.
  const std::uint64_t per_iteration =
      static_cast<std::uint64_t>(r.tasks_total) / 3;  // 3 iterations
  EXPECT_LE(sink->peak_open_spans(), per_iteration);
  EXPECT_GT(sink->bytes_written(), 0u);
  std::remove(path.c_str());
}

// --- windowed metric snapshots ----------------------------------------------

TEST(StreamWindows, OnePerBarrierEpochMonotone) {
  const std::string path = spill_path("windows");
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(with_stream(plain_config(), path));
  rt.run(wl);

  const stream::StreamReader reader(path);
  const auto& windows = reader.windows();
  ASSERT_EQ(windows.size(), 3u);  // one per iteration barrier
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const stream::MetricWindow& w = windows[i];
    EXPECT_EQ(w.epoch, static_cast<int>(i));
    EXPECT_GE(w.t_end, w.t_begin);
    if (i > 0) {
      EXPECT_EQ(w.t_begin, windows[i - 1].t_end);
      EXPECT_GE(w.events_fired, windows[i - 1].events_fired);
      EXPECT_GE(w.spans_spilled, windows[i - 1].spans_spilled);
    }
  }
  EXPECT_EQ(reader.footer().window_records, windows.size());
  EXPECT_LE(windows.back().spans_spilled, reader.footer().span_records);
  std::remove(path.c_str());
}

// --- spill-file validation ---------------------------------------------------

struct SpillFixture : ::testing::Test {
  std::string path;

  void SetUp() override {
    // Unique per test: ctest -j runs each TEST_F in its own process from
    // the same directory, so a shared name would let concurrent fixture
    // SetUps stomp each other's file mid-mutation.
    path = spill_path((std::string("validate_") +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name())
                          .c_str());
    apps::SyntheticWorkload wl(plain_workload());
    core::ClusterRuntime rt(with_stream(plain_config(), path));
    rt.run(wl);
  }
  void TearDown() override { std::remove(path.c_str()); }

  std::vector<char> slurp() const {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void dump(const std::vector<char>& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static std::string error_of(const std::string& p) {
    try {
      stream::StreamReader reader(p);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(SpillFixture, IntactFileParses) {
  EXPECT_EQ(error_of(path), "");
}

TEST_F(SpillFixture, TruncationIsAnOffsetNumberedError) {
  std::vector<char> bytes = slurp();
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() / 2);
  dump(bytes);
  const std::string err = error_of(path);
  ASSERT_NE(err, "") << "truncated spill parsed without error";
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST_F(SpillFixture, CorruptHeaderMagicIsRejected) {
  std::vector<char> bytes = slurp();
  bytes[0] ^= 0x5a;
  dump(bytes);
  const std::string err = error_of(path);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
  EXPECT_NE(err.find("offset 0"), std::string::npos) << err;
}

TEST_F(SpillFixture, CorruptRecordPayloadSizeIsRejected) {
  std::vector<char> bytes = slurp();
  // First record prelude sits right after the 16-byte header: u8 type +
  // u32 payload size. Blow the size up past the file end.
  ASSERT_GT(bytes.size(), 21u);
  bytes[17] = static_cast<char>(0xff);
  bytes[18] = static_cast<char>(0xff);
  bytes[19] = static_cast<char>(0xff);
  bytes[20] = static_cast<char>(0x7f);
  dump(bytes);
  const std::string err = error_of(path);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST_F(SpillFixture, MissingTrailerIsRejected) {
  std::vector<char> bytes = slurp();
  bytes.resize(bytes.size() - 1);  // clip the closing magic
  dump(bytes);
  const std::string err = error_of(path);
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("trailer"), std::string::npos) << err;
}

}  // namespace
