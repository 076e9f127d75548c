// Fig 17 (extension): engine scale-out — events/sec, bounded telemetry
// memory, and the cost of the max-min fabric solve.
//
// The paper's figures stop at 32 nodes; this figure asks what the
// *simulator* can sustain when the modelled machine grows to 256 nodes
// and >1M tasks. Three arms:
//
//  - "telemetry": one mid-size machine run three ways — span telemetry
//    off, the in-memory obs::SpanCollector, and the tlb::stream spill
//    backend. The collector's resident set grows with total tasks; the
//    stream sink's with *in-flight* tasks (peak_open_spans), so its RSS
//    tracks the telemetry-off run while producing the same trace (the
//    equivalence is pinned bit-for-bit by tests/stream_test.cpp). Each
//    backend runs in a forked child, so its peak RSS is its own.
//  - "solver": one fabric driven through a seeded arrival/cancel
//    sequence: wall clock, solves, flows touched, and the filling rounds
//    run and replayed by the warm-started max-min solve (its bitwise
//    exactness is pinned against a reference progressive filling by
//    tests/net_test.cpp).
//  - "scale": nodes x tasks with the streaming backend (the fig17
//    configuration): wall clock, events/sec, peak RSS, spans spilled,
//    and solver work counters. Each point runs in a forked child, so its
//    peak RSS is that point's own, not the high-water mark of the arms
//    that ran before it.
//
// Baseline recorded for the header claim: the pre-PR engine (seed
// 89c9282: std::priority_queue event loop, full re-solve on every flow
// event, in-memory collector only) measured on the same host at the
// 64-node scale point sustains kSeedBaselineEventsPerSec below; every
// "scale" point reports vs_seed64 = its rate over that one 64-node
// number (so vs_seed64 at other node counts mixes scale effects with
// engine effects — only the 64-node row is apples-to-apples). With
// TLB_PROF=1 every scale point additionally reports solver_wall_share,
// alloc_bytes_per_task, and per-subsystem byte attribution from the
// src/prof self-profiler (windowed per point). Measured outcomes on the
// reference host are in EXPERIMENTS.md Fig 17. Simulated results are
// deterministic; only wall-clock columns vary between hosts.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <type_traits>
#include <utility>

#include "apps/synthetic.hpp"
#include "bench/common.hpp"
#include "net/fabric.hpp"
#include "prof/prof.hpp"

namespace {

using namespace tlb;

constexpr int kCores = 8;
constexpr int kDegree = 4;
constexpr double kNicBandwidth = 2e8;             // 200 MB/s
constexpr std::uint64_t kPayload = 256u << 10;    // 256 KiB/task
constexpr int kLeafRadix = 16;
constexpr int kSpines = 4;

/// Pre-PR engine throughput at the 64-node scale point on the reference
/// host (see header). 0 means "not yet measured on this checkout".
constexpr double kSeedBaselineEventsPerSec = 4937.0;

std::string bench_dir() {
  const char* dir = std::getenv("TLB_BENCH_OUTPUT_DIR");
  return (dir != nullptr && dir[0] != '\0') ? std::string(dir) : std::string(".");
}

apps::SyntheticConfig workload_config(int nodes, int tasks_per_rank) {
  apps::SyntheticConfig cfg;
  cfg.appranks = nodes;
  // Many barrier-paced iterations of moderate task counts: the stream
  // sink's working set is the *in-flight* spans (one iteration's worth),
  // so total tasks grow 16x past resident telemetry memory.
  cfg.iterations = bench::smoke() ? 4 : 16;
  cfg.tasks_per_rank = tasks_per_rank;
  cfg.base_duration = 0.005;
  cfg.imbalance = 1.8;
  cfg.bytes_per_task = kPayload;
  return cfg;
}

enum class Telemetry { Off, Collector, Stream };

core::RuntimeConfig runtime_config(int nodes, Telemetry telemetry,
                                   const std::string& stream_path) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(nodes, kCores);
  cfg.cluster.link.bandwidth = kNicBandwidth;
  cfg.appranks_per_node = 1;
  cfg.degree = kDegree;
  cfg.policy = core::PolicyKind::Global;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = kLeafRadix;
  cfg.net.spines = kSpines;
  cfg.obs.spans = telemetry == Telemetry::Collector;
  cfg.obs.stream.enabled = telemetry == Telemetry::Stream;
  cfg.obs.stream.path = stream_path;
  cfg.prof.enabled = bench::prof_requested();
  // Smoke points fire only a few thousand events; the default 8192-event
  // cadence would leave the health-snapshot buffer empty.
  cfg.prof.snapshot_every_events = bench::smoke() ? 256 : 8192;
  return cfg;
}

std::uint64_t total_tasks(int nodes, int tasks_per_rank) {
  const apps::SyntheticConfig cfg = workload_config(nodes, tasks_per_rank);
  return static_cast<std::uint64_t>(cfg.appranks) *
         static_cast<std::uint64_t>(cfg.iterations) *
         static_cast<std::uint64_t>(cfg.tasks_per_rank);
}

/// Trivially copyable, so a forked scale point can hand it back through a
/// pipe.
struct RunSample {
  double makespan = 0.0;
  std::uint64_t events_fired = 0;
  std::uint64_t tasks_total = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double rss_mb = 0.0;       ///< VmRSS right after run() (runtime alive)
  double peak_rss_mb = 0.0;  ///< process high-water mark so far
  std::uint64_t spans_spilled = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t peak_open_spans = 0;
  std::uint64_t marks = 0;         ///< timeline marks recorded
  std::uint64_t marks_stored = 0;  ///< of those, kept in memory
  std::uint64_t solver_runs = 0;
  std::uint64_t solver_flows_touched = 0;
  std::uint64_t solver_rounds = 0;
  std::uint64_t solver_rounds_replayed = 0;
  // Filled only when TLB_PROF=1 (all zero otherwise).
  bool prof_on = false;
  double solver_wall_share = 0.0;       ///< total_ns("net.solve") / window wall
  double prof_unattributed_share = 0.0; ///< 1 - attributed/wall (acceptance <5%)
  double alloc_bytes_per_task = 0.0;    ///< sum of per-tag peaks / total tasks
  std::uint64_t prof_snapshots = 0;
  /// Per-tag peaks for the RSS breakdown (tag names are static strings).
  std::array<prof::TagStats, prof::kAllocTagCount> alloc_peaks{};
};
static_assert(std::is_trivially_copyable_v<RunSample>);

RunSample run_once(int nodes, int tasks_per_rank, Telemetry telemetry,
                   const std::string& stream_path) {
  // Each point gets its own profiler window so solver_wall_share and the
  // allocation peaks describe this run, not everything since main().
  const bool prof_on = bench::prof_requested();
  if (prof_on) prof::Profiler::instance().reset();
  RunSample s;
  s.prof_on = prof_on;
  apps::SyntheticWorkload wl(workload_config(nodes, tasks_per_rank));
  core::ClusterRuntime rt(runtime_config(nodes, telemetry, stream_path));
  const auto t0 = std::chrono::steady_clock::now();
  const core::RunResult result = rt.run(wl);
  s.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  s.makespan = result.makespan;
  s.events_fired = result.events_fired;
  s.tasks_total = result.tasks_total;
  s.events_per_sec =
      s.wall_s > 0.0 ? static_cast<double>(s.events_fired) / s.wall_s : 0.0;
  s.rss_mb = bench::current_rss_mb();
  s.peak_rss_mb = bench::peak_rss_mb();
  s.marks = rt.recorder().mark_count();
  s.marks_stored = rt.recorder().marks().size();
  if (const stream::StreamSink* sink = rt.stream_sink()) {
    s.spans_spilled = sink->spans_spilled();
    s.stream_bytes = sink->bytes_written();
    s.peak_open_spans = sink->peak_open_spans();
  }
  if (const net::Fabric* fabric = rt.fabric()) {
    s.solver_runs = fabric->solver_runs();
    s.solver_flows_touched = fabric->solver_flows_touched();
    s.solver_rounds = fabric->solver_rounds();
    s.solver_rounds_replayed = fabric->solver_rounds_replayed();
  }
  if (prof_on) {
    // Read before ~ClusterRuntime so the window excludes teardown (the
    // teardown frees are what balances the alloc counters, not a cost the
    // run pays); peaks are monotone within the window so reading them
    // with the runtime still alive is exact.
    auto& p = prof::Profiler::instance();
    const std::uint64_t wall_ns = p.wall_ns();
    if (wall_ns > 0) {
      s.solver_wall_share =
          static_cast<double>(p.total_ns("net.solve")) /
          static_cast<double>(wall_ns);
      const std::uint64_t attributed = p.attributed_ns();
      s.prof_unattributed_share =
          attributed < wall_ns
              ? 1.0 - static_cast<double>(attributed) /
                          static_cast<double>(wall_ns)
              : 0.0;
    }
    s.prof_snapshots = p.snapshots().size();
    const std::vector<prof::TagStats> peaks = p.alloc_stats();
    std::copy_n(peaks.begin(), std::min(peaks.size(), s.alloc_peaks.size()),
                s.alloc_peaks.begin());
    std::int64_t peak_sum = 0;
    for (const auto& t : s.alloc_peaks) peak_sum += t.peak_bytes;
    const std::uint64_t tasks = total_tasks(nodes, tasks_per_rank);
    if (tasks > 0) {
      s.alloc_bytes_per_task =
          static_cast<double>(peak_sum) / static_cast<double>(tasks);
    }
  }
  return s;
}

/// A forked point's profiler window (TLB_PROF=1): the report's "prof"
/// block and collapsed-stack fold as the child rendered them.
struct ChildProfile {
  std::string json;
  std::string collapsed;
};

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, bytes, size);
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, bytes, size);
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_string(int fd, const std::string& s) {
  const std::uint64_t size = s.size();
  return write_all(fd, &size, sizeof(size)) &&
         write_all(fd, s.data(), s.size());
}

bool read_string(int fd, std::string& s) {
  std::uint64_t size = 0;
  if (!read_all(fd, &size, sizeof(size))) return false;
  s.resize(static_cast<std::size_t>(size));
  return read_all(fd, s.data(), s.size());
}

/// run_once() in a forked child: the point's peak RSS is the child's own
/// high-water mark, which starts from the pages the child inherits (the
/// binary and whatever the earlier arms left resident) instead of the
/// parent's peak so far. With TLB_PROF=1 the child also hands back its
/// profiler window, which the parent's profiler never sees; it lands in
/// `profile` when that is non-null.
RunSample run_in_child(int nodes, int tasks_per_rank, Telemetry telemetry,
                       const std::string& stream_path,
                       ChildProfile* profile = nullptr) {
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("fig17: pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fig17: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const RunSample s =
        run_once(nodes, tasks_per_rank, telemetry, stream_path);
    bool ok = write_all(fds[1], &s, sizeof(s));
    if (ok && s.prof_on) {
      const prof::Profiler& p = prof::Profiler::instance();
      ok = write_string(fds[1], p.to_json()) &&
           write_string(fds[1], p.collapsed_stacks());
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  RunSample s;
  ChildProfile got;
  bool ok = read_all(fds[0], &s, sizeof(s));
  if (ok && s.prof_on) {
    ok = read_string(fds[0], got.json) && read_string(fds[0], got.collapsed);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "fig17: point at %d nodes failed\n", nodes);
    std::exit(1);
  }
  if (profile != nullptr) *profile = std::move(got);
  return s;
}

// --- telemetry arm ------------------------------------------------------------

void telemetry_arm(bench::JsonReport& report, int nodes, int tasks_per_rank) {
  using namespace tlb::bench;
  print_header("Fig 17a: telemetry backend at " + std::to_string(nodes) +
                   " nodes (" + std::to_string(total_tasks(nodes,
                                                           tasks_per_rank)) +
                   " tasks)",
               {"backend", "makespan[s]", "wall[s]", "kev/s", "rss[MB]",
                "spans", "open_peak"});
  const struct {
    Telemetry telemetry;
    const char* name;
  } backends[] = {{Telemetry::Off, "off"},
                  {Telemetry::Stream, "stream"},
                  {Telemetry::Collector, "collector"}};
  ChildProfile profile;
  for (const auto& b : backends) {
    const std::string spill = bench_dir() + "/fig17_telemetry.stream";
    const RunSample s =
        run_in_child(nodes, tasks_per_rank, b.telemetry, spill, &profile);
    const std::uint64_t spans = b.telemetry == Telemetry::Stream
                                    ? s.spans_spilled
                                    : (b.telemetry == Telemetry::Collector
                                           ? s.tasks_total
                                           : 0);
    print_cell(b.name);
    print_cell(s.makespan);
    print_cell(s.wall_s);
    print_cell(fmt(s.events_per_sec / 1e3, 2));
    print_cell(fmt(s.rss_mb, 1));
    print_cell(static_cast<int>(spans));
    print_cell(static_cast<int>(s.peak_open_spans));
    end_row();

    report.point("telemetry")
        .set("backend", b.name)
        .set("nodes", nodes)
        .set("tasks", total_tasks(nodes, tasks_per_rank))
        .set("makespan", s.makespan)
        .set("wall_s", s.wall_s)
        .set("events_fired", s.events_fired)
        .set("events_per_sec", s.events_per_sec)
        .set("rss_mb", s.rss_mb)
        .set("peak_rss_mb", s.peak_rss_mb)
        .set("spans_spilled", s.spans_spilled)
        .set("stream_bytes", s.stream_bytes)
        .set("peak_open_spans", s.peak_open_spans)
        .set("marks", s.marks)
        .set("marks_stored", s.marks_stored);
    if (b.telemetry == Telemetry::Stream) std::remove(spill.c_str());
  }
  // The report's "prof" block covers the last backend's run (the
  // collector's): this process ran none of them.
  if (!profile.json.empty()) {
    report.use_profile(std::move(profile.json), std::move(profile.collapsed));
  }
}

// --- solver arm ---------------------------------------------------------------

struct SolverSample {
  double wall_s = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t flows_touched = 0;
  std::uint64_t rounds = 0;
  std::uint64_t rounds_replayed = 0;
};

/// Drives one fabric through a fixed seeded flow schedule: `count` flow
/// arrivals 50us apart, random (src, dst, bytes), every 7th flow
/// cancelled mid-flight.
SolverSample drive_fabric(int nodes, int count) {
  sim::Engine engine;
  net::NetTopology topo = net::NetTopology::fat_tree(
      nodes, kLeafRadix, kSpines, kNicBandwidth, 4.0 * kNicBandwidth, 1e-6,
      5e-7);
  net::Fabric fabric(engine, std::move(topo));

  std::mt19937_64 rng(0xF16'17ull);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<net::NodeId>(rng() % nodes);
    auto dst = static_cast<net::NodeId>(rng() % nodes);
    if (dst == src) dst = (dst + 1) % nodes;
    const std::uint64_t bytes = (64u << 10) + rng() % (1u << 20);
    const bool cancel_it = i % 7 == 3;
    engine.at(5e-5 * i, [&, src, dst, bytes, cancel_it] {
      const net::FlowId id = fabric.start_flow(src, dst, bytes, [] {});
      if (cancel_it) engine.after(2e-4, [&, id] { fabric.cancel(id); });
    });
  }
  engine.run();
  SolverSample s;
  s.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  s.runs = fabric.solver_runs();
  s.flows_touched = fabric.solver_flows_touched();
  s.rounds = fabric.solver_rounds();
  s.rounds_replayed = fabric.solver_rounds_replayed();
  return s;
}

void solver_arm(bench::JsonReport& report, int nodes, int flow_count) {
  using namespace tlb::bench;
  print_header("Fig 17b: max-min solve under flow churn (" +
                   std::to_string(nodes) + " nodes, " +
                   std::to_string(flow_count) + " flows)",
               {"wall[s]", "solves", "flows_touched", "rounds", "replayed"});

  const SolverSample s = drive_fabric(nodes, flow_count);
  print_cell(s.wall_s);
  print_cell(static_cast<int>(s.runs));
  print_cell(static_cast<int>(s.flows_touched));
  print_cell(static_cast<int>(s.rounds));
  print_cell(static_cast<int>(s.rounds_replayed));
  end_row();

  report.point("solver")
      .set("nodes", nodes)
      .set("flows", flow_count)
      .set("wall_s", s.wall_s)
      .set("solver_runs", s.runs)
      .set("solver_flows_touched", s.flows_touched)
      .set("solver_rounds", s.rounds)
      .set("solver_rounds_replayed", s.rounds_replayed);
}

// --- scale arm ----------------------------------------------------------------

void scale_arm(bench::JsonReport& report, const std::vector<int>& node_counts,
               int tasks_per_rank) {
  using namespace tlb::bench;
  print_header("Fig 17c: engine scale (stream telemetry)",
               {"nodes", "tasks", "makespan[s]", "wall[s]", "kev/s",
                "peak_rss[MB]", "spans", "vs_seed64"});
  for (const int nodes : node_counts) {
    const std::string spill =
        bench_dir() + "/fig17_scale_n" + std::to_string(nodes) + ".stream";
    const RunSample s =
        run_in_child(nodes, tasks_per_rank, Telemetry::Stream, spill);
    const double vs_seed = kSeedBaselineEventsPerSec > 0.0
                               ? s.events_per_sec / kSeedBaselineEventsPerSec
                               : 0.0;

    print_cell(nodes);
    print_cell(static_cast<int>(total_tasks(nodes, tasks_per_rank)));
    print_cell(s.makespan);
    print_cell(s.wall_s);
    print_cell(fmt(s.events_per_sec / 1e3, 2));
    print_cell(fmt(s.peak_rss_mb, 1));
    print_cell(static_cast<int>(s.spans_spilled));
    print_cell(fmt(vs_seed, 2));
    end_row();

    bench::JsonObject& pt = report.point("scale");
    pt.set("nodes", nodes)
        .set("tasks", total_tasks(nodes, tasks_per_rank))
        .set("makespan", s.makespan)
        .set("wall_s", s.wall_s)
        .set("events_fired", s.events_fired)
        .set("events_per_sec", s.events_per_sec)
        .set("rss_mb", s.rss_mb)
        .set("peak_rss_mb", s.peak_rss_mb)
        .set("spans_spilled", s.spans_spilled)
        .set("stream_bytes", s.stream_bytes)
        .set("peak_open_spans", s.peak_open_spans)
        .set("solver_runs", s.solver_runs)
        .set("solver_flows_touched", s.solver_flows_touched)
        .set("solver_rounds", s.solver_rounds)
        .set("solver_rounds_replayed", s.solver_rounds_replayed)
        .set("events_per_sec_vs_seed", vs_seed);
    if (s.prof_on) {
      // Direction-aware trend metrics (tools/bench_trend.py: up is bad)
      // plus the per-subsystem RSS attribution for EXPERIMENTS.md.
      pt.set("solver_wall_share", s.solver_wall_share)
          .set("alloc_bytes_per_task", s.alloc_bytes_per_task)
          .set("prof_unattributed_share", s.prof_unattributed_share)
          .set("prof_snapshots", s.prof_snapshots);
      const auto tasks =
          static_cast<double>(total_tasks(nodes, tasks_per_rank));
      for (const auto& t : s.alloc_peaks) {
        if (t.tag == nullptr) continue;
        std::string key = std::string("alloc_") + t.tag + "_bytes_per_task";
        for (char& c : key) {
          if (c == '.') c = '_';
        }
        pt.set(key, tasks > 0.0
                        ? static_cast<double>(t.peak_bytes) / tasks
                        : 0.0);
      }
    }
    std::remove(spill.c_str());
  }
}

}  // namespace

int main() {
  const bool smoke = tlb::bench::smoke();
  std::printf(
      "== Fig 17: engine scale-out (stream telemetry, max-min solve) ==\n"
      "(synthetic, %d cores/node, degree %d, %d KiB/task, fat-tree\n"
      " %d-leaf/%d-spine, %.0f MB/s NICs; seed baseline %.0f events/s at\n"
      " the 64-node point — see header comment)\n",
      kCores, kDegree, static_cast<int>(kPayload >> 10), kLeafRadix, kSpines,
      kNicBandwidth / 1e6, kSeedBaselineEventsPerSec);

  tlb::bench::JsonReport report("fig17",
                                "Engine scale-out: events/sec, bounded "
                                "telemetry memory, max-min solve");
  report.config()
      .set("cores_per_node", kCores)
      .set("degree", kDegree)
      .set("payload_bytes", kPayload)
      .set("nic_bandwidth", kNicBandwidth)
      .set("leaf_radix", kLeafRadix)
      .set("spines", kSpines)
      .set("seed_baseline_events_per_sec", kSeedBaselineEventsPerSec)
      .set("seed_baseline_commit", "89c9282");

  const int tasks_per_rank = smoke ? 16 : 256;
  const int telemetry_nodes = smoke ? 8 : 64;
  const std::vector<int> scale_nodes =
      smoke ? std::vector<int>{4, 8} : std::vector<int>{16, 64, 256};

  telemetry_arm(report, telemetry_nodes, tasks_per_rank);
  solver_arm(report, smoke ? 16 : 64, smoke ? 512 : 4096);
  scale_arm(report, scale_nodes, tasks_per_rank);
  return 0;
}
