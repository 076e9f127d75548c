// Tests of the bounded-memory streaming telemetry backend (tlb::stream):
// determinism (golden schedule fingerprints unchanged with the stream
// backend on), exporter equivalence (the reader-reconstructed view
// produces byte-identical Chrome traces and flame folds and the same
// critical path as the in-memory collector, with and without a crash),
// one Chrome event per rescue in either backend, the bounded working set,
// windowed metric snapshots, and spill-file validation diagnostics
// (truncation / corruption throw with the exact byte offset).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/flame.hpp"
#include "obs/span.hpp"
#include "stream/reader.hpp"
#include "stream/sink.hpp"

namespace {

using namespace tlb;

// --- golden fingerprints (shared with tests/sched_test.cpp) ------------------

std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::uint64_t schedule_fingerprint(const core::ClusterRuntime& rt,
                                   const core::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const nanos::TaskPool& pool = rt.tasks();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const nanos::Task& t = pool.get(static_cast<nanos::TaskId>(i));
    h = fp_mix(h, t.id);
    h = fp_mix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(t.scheduled_node)));
    h = fp_mix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(t.executed_worker)));
    h = fp_mix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(t.executed_core)));
    h = fp_mix(h, static_cast<std::uint64_t>(t.executions));
    h = fp_mix(h, bits_of(t.start_at));
    h = fp_mix(h, bits_of(t.finish_at));
  }
  h = fp_mix(h, bits_of(r.makespan));
  h = fp_mix(h, r.events_fired);
  return h;
}

// Captured in tests/sched_test.cpp from the pre-obs binary; the stream
// backend only records — it must not move them.
constexpr std::uint64_t kGoldenPlain = 0x5515139c5bf2c300ull;
constexpr std::uint64_t kGoldenNet = 0xb613ed57f79b2e8aull;

core::RuntimeConfig plain_config() {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 8);
  cfg.appranks_per_node = 2;
  cfg.degree = 3;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  return cfg;
}

apps::SyntheticConfig plain_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 8;
  cfg.imbalance = 1.8;
  cfg.iterations = 3;
  cfg.tasks_per_rank = 40;
  return cfg;
}

core::RuntimeConfig net_config() {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 4);
  cfg.appranks_per_node = 1;
  cfg.degree = 2;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = 2;
  cfg.net.spines = 1;
  return cfg;
}

apps::SyntheticConfig net_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 4;
  cfg.iterations = 2;
  cfg.tasks_per_rank = 24;
  cfg.imbalance = 2.0;
  cfg.bytes_per_task = 1 << 20;
  return cfg;
}

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

    const int nodes = crt.topology().node_count();
    const int appranks = crt.topology().apprank_count();
    EXPECT_EQ(obs::chrome_trace_json(from_file, nodes, appranks),
              obs::chrome_trace_json(live, nodes, appranks));
    EXPECT_EQ(obs::collapsed_stacks_text(from_file),
              obs::collapsed_stacks_text(live));

    const obs::CriticalPath cp_live = obs::critical_path(crt.tasks(), live);
    const obs::CriticalPath cp_file =
        obs::critical_path(srt.tasks(), from_file);
    EXPECT_EQ(cp_file.length, cp_live.length);
    EXPECT_EQ(cp_file.compute, cp_live.compute);
    EXPECT_EQ(cp_file.transfer, cp_live.transfer);
    EXPECT_EQ(cp_file.chain, cp_live.chain);

    // Footer aggregates travel with the file.
    EXPECT_EQ(from_file.transfer_wait_core_seconds(),
              live.transfer_wait_core_seconds());
    EXPECT_EQ(from_file.rescues(), live.rescues());
    EXPECT_EQ(from_file.spans().size(), live.spans().size());
    EXPECT_EQ(from_file.instants().size(), live.instants().size());
    std::remove(path.c_str());
  }
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

  for (const obs::SpanCollector* spans : {crt.spans(), &reader.spans()}) {
    ASSERT_NE(spans, nullptr);
    ASSERT_GT(spans->rescues(), 0u);
    std::uint64_t rescue_events = 0;
    for (const obs::ChromeEvent& e :
         obs::chrome_events(*spans, crt.topology().node_count(),
                            crt.topology().apprank_count())) {
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
