// Benchmark driver: runs one simulator workload for a time budget and
// prints what it measured as one JSON line on stdout (run.py turns that
// line into the benchmark result).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --scratch <dir>
//
// Workloads (fixed shapes; --seed is RuntimeConfig::seed, which drives the
// expander, the workload reseed and, for the service, the arrivals):
//   paper_micropp   MicroPP (bench/micropp_figure.hpp's configuration) on
//                   32 MareNostrum4 nodes x 48 cores, 2 appranks per node,
//                   degree 4, global policy with 0.057 s solver latency,
//                   analytic interconnect: 524,288 tasks.
//   fabric_fattree  fig17's 32-node scale point: synthetic, imbalance 1.8,
//                   8 cores/node, degree 4, 256 KiB per task over a
//                   16-leaf / 4-spine fat-tree with 200 MB/s NICs, stream
//                   telemetry spilled to <scratch>, full max-min re-solve:
//                   131,072 tasks.
//   svc_overload    fig15's two-tenant mix on 8 x 8 cores, Poisson arrivals
//                   at 19.16 jobs/s (2x fig15's 9.58 jobs/s saturation)
//                   over a 600 s horizon, fig15's admission tuning.
//
// --trace 0 times whole simulations (construction, run(), teardown) and
// reads their simulated outcome. --trace 1 alternates an untraced and a
// tlb::prof-traced simulation, reports the phase / allocation breakdown of
// the traced one, and times the expander build, the allocation solver and
// workload generation directly. Every simulation is checked: exactly-once
// task completion, makespan >= the perfect bound, arrived = completed +
// shed, and bit-identical outputs across repeats of the seed (traced runs
// included, which also proves the profiler record-only).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/micropp/workload.hpp"
#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "graph/expander.hpp"
#include "prof/prof.hpp"
#include "sim/rng.hpp"
#include "solver/allocation.hpp"
#include "svc/job_manager.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tlb;
using Clock = std::chrono::steady_clock;
using Values = std::map<std::string, double>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Type-7 quantile (linear interpolation between order statistics), the
/// definition svc::JobManager uses for its latency percentiles.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string render(const Values& values) {
  std::string out = "{";
  for (const auto& [key, v] : values) {
    if (out.size() > 1) out += ", ";
    out += quote(key) + ": " + num(v);
  }
  return out + "}";
}

/// FNV-1a over the bit patterns of simulated outputs: two runs agree
/// bit for bit iff their fingerprints match.
class Fingerprint {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001B3ull;
  }
  void add(const std::vector<double>& v) {
    add(v.size());
    for (double x : v) add(x);
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// --- workload shapes ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

/// One batch simulation: a runtime config plus a factory for a fresh
/// workload instance.
struct BatchShape {
  core::RuntimeConfig config;
  std::function<std::unique_ptr<core::Workload>()> make_workload;
  std::uint64_t expected_tasks = 0;
};

BatchShape paper_micropp(std::uint64_t seed) {
  BatchShape shape;
  core::RuntimeConfig& cfg = shape.config;
  cfg.cluster = sim::ClusterSpec::homogeneous(32, 48);
  cfg.appranks_per_node = 2;
  cfg.degree = 4;
  cfg.policy = core::PolicyKind::Global;
  cfg.solver_latency = 0.057;  // paper §5.4.2, 32 nodes
  cfg.seed = seed;

  apps::micropp::MicroPPConfig app;
  app.appranks = 64;
  app.iterations = 16;
  app.elements_per_rank = 8192;
  app.elements_per_task = 16;
  app.heavy_rank_fraction = 0.25;
  app.nonlinear_fraction_heavy = 0.55;
  app.nonlinear_fraction_light = 0.05;
  app.core_flops_rate = 5e7;
  shape.make_workload = [app] {
    return std::make_unique<apps::micropp::MicroPPWorkload>(app);
  };
  shape.expected_tasks = 64ull * 16 * (8192 / 16);
  return shape;
}

BatchShape fabric_fattree(std::uint64_t seed, const std::string& scratch) {
  BatchShape shape;
  core::RuntimeConfig& cfg = shape.config;
  cfg.cluster = sim::ClusterSpec::homogeneous(32, 8);
  cfg.cluster.link.bandwidth = 2e8;  // 200 MB/s NICs
  cfg.appranks_per_node = 1;
  cfg.degree = 4;
  cfg.policy = core::PolicyKind::Global;
  cfg.net.enabled = true;
  cfg.net.topology = net::TopologyKind::FatTree;
  cfg.net.leaf_radix = 16;
  cfg.net.spines = 4;
  cfg.obs.stream.enabled = true;
  cfg.obs.stream.path = scratch + "/fabric_fattree.stream";
  cfg.seed = seed;

  apps::SyntheticConfig app;
  app.appranks = 32;
  app.iterations = 16;
  app.tasks_per_rank = 256;
  app.base_duration = 0.005;
  app.imbalance = 1.8;
  app.bytes_per_task = 256u << 10;
  shape.make_workload = [app] {
    return std::make_unique<apps::SyntheticWorkload>(app);
  };
  shape.expected_tasks = 32ull * 16 * 256;
  return shape;
}

constexpr double kServiceSaturation = 9.58;  // fig15's calibrated jobs/s

core::RuntimeConfig svc_overload(std::uint64_t seed) {
  svc::JobTemplate interactive;
  interactive.name = "interactive";
  interactive.nodes = 2;
  interactive.appranks_per_node = 1;
  interactive.degree = 2;
  interactive.iterations = 2;
  interactive.tasks_per_rank = 32;
  interactive.base_duration = 0.020;
  interactive.imbalance = 1.5;
  interactive.deadline_class = 0;
  interactive.deadline = 1.5;
  interactive.weight = 4.0;

  svc::JobTemplate batch;
  batch.name = "batch";
  batch.nodes = 4;
  batch.appranks_per_node = 1;
  batch.degree = 2;
  batch.iterations = 4;
  batch.tasks_per_rank = 48;
  batch.base_duration = 0.025;
  batch.imbalance = 2.0;
  batch.deadline_class = 2;
  batch.deadline = 10.0;
  batch.weight = 1.0;

  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(8, 8);
  cfg.appranks_per_node = 1;
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = seed;
  cfg.record_traces = false;
  cfg.svc.enabled = true;
  cfg.svc.templates = {interactive, batch};
  cfg.svc.arrivals.shape = svc::ArrivalShape::Poisson;
  cfg.svc.arrivals.rate = 2.0 * kServiceSaturation;
  cfg.svc.arrivals.horizon = 600.0;
  cfg.svc.fabric_pressure = 0.02;

  svc::AdmissionConfig& adm = cfg.svc.admission;
  adm.enabled = true;
  adm.bucket_rate = 2.0 * kServiceSaturation;
  adm.bucket_burst = 16.0;
  adm.initial_limit = 6;
  adm.min_limit = 2;
  adm.max_limit = 12;
  adm.tolerance = 2.5;
  adm.update_window = 8;
  adm.class_fractions = {1.0, 0.85, 0.6};
  adm.retry_backoff = 0.3;
  adm.retry_max = 2;
  return cfg;
}

std::uint64_t tasks_per_job(const svc::JobTemplate& tpl) {
  return static_cast<std::uint64_t>(tpl.nodes) * tpl.appranks_per_node *
         tpl.iterations * tpl.tasks_per_rank;
}

/// Forwarding decorator that times workload generation under its own
/// profiler phases. reseed and on_iteration_done pass through unchanged,
/// so the schedule stays bit-identical to the bare workload's.
class TimedWorkload final : public core::Workload {
 public:
  explicit TimedWorkload(core::Workload& inner) : inner_(inner) {}

  [[nodiscard]] int iteration_count() const override {
    return inner_.iteration_count();
  }
  void reseed(std::uint64_t seed) override { inner_.reseed(seed); }
  std::vector<core::TaskSpec> make_tasks(int apprank, int iteration) override {
    PROF_SCOPE("apps.make_tasks");
    return inner_.make_tasks(apprank, iteration);
  }
  std::vector<nanos::AccessRegion> barrier_regions(int apprank,
                                                   int iteration) override {
    PROF_SCOPE("apps.barrier_regions");
    return inner_.barrier_regions(apprank, iteration);
  }
  void on_iteration_done(int iteration,
                         const std::vector<double>& apprank_times) override {
    inner_.on_iteration_done(iteration, apprank_times);
  }

 private:
  core::Workload& inner_;
};

// --- profiler readout ---------------------------------------------------------

struct PhaseTotal {
  double inclusive_s = 0.0;
  double exclusive_s = 0.0;
  double calls = 0.0;
};

/// Sums every phase-tree node with this name, whatever its call path.
PhaseTotal phase(const char* name) {
  PhaseTotal t;
  for (const prof::PhaseNode& n : prof::Profiler::instance().phases()) {
    if (std::strcmp(n.name, name) != 0) continue;
    t.inclusive_s += static_cast<double>(n.inclusive_ns) * 1e-9;
    t.exclusive_s += static_cast<double>(n.exclusive_ns()) * 1e-9;
    t.calls += static_cast<double>(n.calls);
  }
  return t;
}

prof::TagStats tag(prof::AllocTag which) {
  const std::vector<prof::TagStats> all =
      prof::Profiler::instance().alloc_stats();
  return all.at(static_cast<std::size_t>(which));
}

/// Engine, runtime, scheduler, telemetry and workload-generation layers
/// of the current profiler window. `tasks` normalises bytes per task.
Values profiled_layers(double tasks) {
  auto& p = prof::Profiler::instance();
  Values v;
  const double wall = static_cast<double>(p.wall_ns()) * 1e-9;
  const double attributed = static_cast<double>(p.attributed_ns()) * 1e-9;
  v["trace.wall_s"] = wall;
  v["trace.unattributed_share"] =
      wall > 0.0 ? std::max(0.0, 1.0 - attributed / wall) : 0.0;

  const prof::TagStats events = tag(prof::AllocTag::SimEvent);
  v["sim.pop_s"] = phase("engine.pop").inclusive_s;
  v["sim.events_pushed"] = static_cast<double>(events.allocs);
  v["sim.event_peak_bytes"] = static_cast<double>(events.peak_bytes);

  v["core.dispatch_self_s"] = phase("engine.dispatch").exclusive_s;
  for (const char* name : {"construct", "start", "finalize"}) {
    const std::string key = std::string("core.") + name;
    const PhaseTotal t = phase(key.c_str());
    v[key + "_s"] = t.inclusive_s;
    v[key + "_calls"] = t.calls;
  }
  v["core.policy_tick_s"] = phase("core.policy_tick").inclusive_s;
  v["core.apply_plan_s"] = phase("core.apply_plan").inclusive_s;
  v["core.exec_peak_bytes"] =
      static_cast<double>(tag(prof::AllocTag::CoreExec).peak_bytes);
  v["core.pending_peak_bytes"] =
      static_cast<double>(tag(prof::AllocTag::CorePending).peak_bytes);

  const PhaseTotal pick = phase("sched.pick");
  v["sched.pick_s"] = pick.inclusive_s;
  v["sched.pick_calls"] = pick.calls;
  v["sched.walk_s"] = phase("sched.locality_walk").inclusive_s;

  const double task_peak =
      static_cast<double>(tag(prof::AllocTag::NanosTask).peak_bytes);
  v["nanos.task_peak_bytes"] = task_peak;
  v["nanos.task_bytes_per_task"] = tasks > 0.0 ? task_peak / tasks : 0.0;

  v["net.solve_s"] = phase("net.solve").inclusive_s;
  v["net.solve_share"] = wall > 0.0 ? v["net.solve_s"] / wall : 0.0;
  v["net.flow_peak_bytes"] =
      static_cast<double>(tag(prof::AllocTag::NetFlow).peak_bytes);

  v["stream.spill_s"] = phase("stream.spill").inclusive_s;
  v["stream.flush_s"] = phase("stream.flush").inclusive_s;

  const PhaseTotal make = phase("apps.make_tasks");
  v["apps.make_tasks_s"] = make.inclusive_s;
  v["apps.make_tasks_calls"] = make.calls;
  v["apps.barrier_regions_s"] = phase("apps.barrier_regions").inclusive_s;
  return v;
}

/// Every per-layer key a workload cannot produce reads 0, so each traced
/// result carries the same metric set.
void zero_fill(Values& v) {
  for (const char* key :
       {"sim.events_fired", "sim.pushes_per_fired", "core.tasks_offloaded",
        "core.control_messages", "core.transfer_bytes", "dlb.lewi_lends",
        "dlb.lewi_borrows", "dlb.lewi_reclaims", "dlb.drom_moves",
        "net.solve_calls", "net.flows_started", "net.flows_cancelled",
        "net.solver_flows_touched", "stream.spans_spilled",
        "stream.bytes_written", "stream.peak_open_spans", "svc.jobs_launched",
        "svc.jobs_shed", "svc.retries"}) {
    v.try_emplace(key, 0.0);
  }
}

// --- one simulation -----------------------------------------------------------

struct Sample {
  double setup_s = 0.0;  ///< construct workload + runtime / manager
  double run_s = 0.0;    ///< inside run()
  double wall_s = 0.0;   ///< construction through destruction
  double tasks = 0.0;    ///< simulated tasks completed
  std::string fingerprint;
  std::vector<std::string> errors;
  Values sim;     ///< simulated outcome (deterministic per seed)
  Values layers;  ///< traced simulations only
};

void check(Sample& s, bool ok, const std::string& what) {
  if (!ok) s.errors.push_back(what);
}

/// Turns the process-global profiler on with a fresh window, or off.
void set_tracing(bool on) {
  auto& p = prof::Profiler::instance();
  if (on) {
    p.enable();
    p.reset();
  } else {
    p.disable();
  }
}

Sample run_batch(const BatchShape& shape, bool traced) {
  Sample s;
  core::RuntimeConfig cfg = shape.config;
  cfg.prof.enabled = traced;
  set_tracing(traced);
  const auto t0 = Clock::now();
  {
    std::unique_ptr<core::Workload> app = shape.make_workload();
    std::unique_ptr<core::Workload> timed;
    if (traced) timed = std::make_unique<TimedWorkload>(*app);
    core::ClusterRuntime rt(cfg);
    const auto t1 = Clock::now();
    const core::RunResult r = rt.run(traced ? *timed : *app);
    const auto t2 = Clock::now();
    s.setup_s = seconds_between(t0, t1);
    s.run_s = seconds_between(t1, t2);
    s.tasks = static_cast<double>(r.tasks_total);

    check(s, r.tasks_total == shape.expected_tasks,
          "tasks_total " + std::to_string(r.tasks_total) + " != generated " +
              std::to_string(shape.expected_tasks));
    check(s, r.perfect_time > 0.0 && r.makespan >= r.perfect_time,
          "makespan " + num(r.makespan) + " below the perfect bound " +
              num(r.perfect_time));
    check(s, static_cast<int>(r.iteration_times.size()) ==
                 app->iteration_count(),
          "iteration count mismatch");

    const net::Fabric* fabric = rt.fabric();
    const stream::StreamSink* sink = rt.stream_sink();
    Fingerprint fp;
    fp.add(r.makespan);
    fp.add(r.perfect_time);
    fp.add(r.iteration_times);
    fp.add(r.tasks_total);
    fp.add(r.tasks_offloaded);
    fp.add(r.work_offloaded);
    fp.add(r.transfer_bytes);
    fp.add(r.control_messages);
    fp.add(r.lewi_lends);
    fp.add(r.lewi_borrows);
    fp.add(r.lewi_reclaims);
    fp.add(r.drom_moves);
    fp.add(r.events_fired);
    if (fabric != nullptr) {
      fp.add(fabric->flows_started());
      fp.add(fabric->flows_completed());
      fp.add(fabric->flows_cancelled());
      fp.add(fabric->bytes_delivered());
      fp.add(fabric->solver_runs());
    }
    if (sink != nullptr) {
      fp.add(sink->spans_spilled());
      fp.add(sink->bytes_written());
    }
    s.fingerprint = fp.hex();

    s.sim["makespan_s"] = r.makespan;
    s.sim["perfect_s"] = r.perfect_time;
    s.sim["tasks_total"] = static_cast<double>(r.tasks_total);
    s.sim["tasks_offloaded"] = static_cast<double>(r.tasks_offloaded);
    s.sim["events_fired"] = static_cast<double>(r.events_fired);
    s.sim["vs_perfect"] = r.vs_perfect();
    // A batch run is one job: its goodput is one job per makespan, and
    // its latency tail is the slowest barrier-to-barrier iteration.
    s.sim["goodput"] = r.makespan > 0.0 ? 1.0 / r.makespan : 0.0;
    s.sim["latency_p99_s"] = quantile(r.iteration_times, 0.99);

    if (traced) {
      s.layers = profiled_layers(s.tasks);
      Values& v = s.layers;
      const double fired = static_cast<double>(r.events_fired);
      v["sim.events_fired"] = fired;
      v["sim.pushes_per_fired"] =
          fired > 0.0 ? v["sim.events_pushed"] / fired : 0.0;
      v["core.tasks_offloaded"] = static_cast<double>(r.tasks_offloaded);
      v["core.control_messages"] = static_cast<double>(r.control_messages);
      v["core.transfer_bytes"] = static_cast<double>(r.transfer_bytes);
      v["dlb.lewi_lends"] = static_cast<double>(r.lewi_lends);
      v["dlb.lewi_borrows"] = static_cast<double>(r.lewi_borrows);
      v["dlb.lewi_reclaims"] = static_cast<double>(r.lewi_reclaims);
      v["dlb.drom_moves"] = static_cast<double>(r.drom_moves);
      if (fabric != nullptr) {
        v["net.solve_calls"] = static_cast<double>(fabric->solver_runs());
        v["net.flows_started"] = static_cast<double>(fabric->flows_started());
        v["net.flows_cancelled"] =
            static_cast<double>(fabric->flows_cancelled());
        v["net.solver_flows_touched"] =
            static_cast<double>(fabric->solver_flows_touched());
      }
      if (sink != nullptr) {
        v["stream.spans_spilled"] =
            static_cast<double>(sink->spans_spilled());
        v["stream.bytes_written"] =
            static_cast<double>(sink->bytes_written());
        v["stream.peak_open_spans"] =
            static_cast<double>(sink->peak_open_spans());
      }
      zero_fill(v);
    }
  }
  s.wall_s = seconds_between(t0, Clock::now());
  set_tracing(false);
  if (cfg.obs.stream.enabled) std::filesystem::remove(cfg.obs.stream.path);
  return s;
}

Sample run_service(const core::RuntimeConfig& base, bool traced) {
  Sample s;
  core::RuntimeConfig cfg = base;
  cfg.prof.enabled = traced;
  set_tracing(traced);
  const auto t0 = Clock::now();
  {
    svc::JobManager mgr(cfg);
    const auto t1 = Clock::now();
    const svc::SvcResult r = mgr.run();
    const auto t2 = Clock::now();
    s.setup_s = seconds_between(t0, t1);
    s.run_s = seconds_between(t1, t2);

    std::uint64_t tasks = 0;
    std::uint64_t tenant_completed = 0;
    for (const svc::SvcTenantRow& row : r.tenants) {
      tasks += row.completed *
               tasks_per_job(cfg.svc.templates[static_cast<std::size_t>(
                   row.template_index)]);
      tenant_completed += row.completed;
    }
    s.tasks = static_cast<double>(tasks);
    check(s, r.arrived == r.completed + r.shed,
          "arrived " + std::to_string(r.arrived) + " != completed " +
              std::to_string(r.completed) + " + shed " +
              std::to_string(r.shed));
    check(s, r.admitted == r.completed, "admitted jobs left unfinished");
    check(s, tenant_completed == r.completed, "tenant rows do not sum up");
    check(s, r.completed > 0 && r.elapsed >= r.horizon,
          "service did not drain past its horizon");

    Fingerprint fp;
    for (const std::uint64_t c : {r.arrived, r.admitted, r.completed, r.shed,
                                  r.retries, r.slo_met, r.engine_events}) {
      fp.add(c);
    }
    for (const double x : {r.elapsed, r.goodput, r.latency_p50,
                           r.latency_p99, r.queue_wait_p99, r.service_mean}) {
      fp.add(x);
    }
    for (const svc::JobRecord& job : mgr.jobs()) {
      fp.add(job.arrival);
      fp.add(job.started);
      fp.add(job.finished);
      fp.add(job.retries);
      fp.add(static_cast<int>(job.outcome));
    }
    s.fingerprint = fp.hex();

    s.sim["arrived"] = static_cast<double>(r.arrived);
    s.sim["completed"] = static_cast<double>(r.completed);
    s.sim["shed"] = static_cast<double>(r.shed);
    s.sim["retries"] = static_cast<double>(r.retries);
    s.sim["slo_met"] = static_cast<double>(r.slo_met);
    s.sim["events_fired"] = static_cast<double>(r.engine_events);
    s.sim["tasks_total"] = s.tasks;
    // A service's perfect bound is draining at the arrival horizon.
    s.sim["vs_perfect"] = r.horizon > 0.0 ? r.elapsed / r.horizon : 0.0;
    s.sim["goodput"] = r.goodput;
    s.sim["latency_p99_s"] = r.latency_p99;

    if (traced) {
      s.layers = profiled_layers(s.tasks);
      Values& v = s.layers;
      const double fired = static_cast<double>(r.engine_events);
      v["sim.events_fired"] = fired;
      v["sim.pushes_per_fired"] =
          fired > 0.0 ? v["sim.events_pushed"] / fired : 0.0;
      v["svc.jobs_launched"] = static_cast<double>(r.admitted);
      v["svc.jobs_shed"] = static_cast<double>(r.shed);
      v["svc.retries"] = static_cast<double>(r.retries);
      zero_fill(v);
    }
  }
  s.wall_s = seconds_between(t0, Clock::now());
  set_tracing(false);
  return s;
}

// --- direct layer timings -----------------------------------------------------

/// Median seconds per call of `fn`, over at least `min_reps` calls and
/// until `budget_s` has passed.
double time_per_call(const std::function<void()>& fn, double budget_s,
                     int min_reps) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// One offloading-graph shape a workload builds (per runtime / per job).
struct GraphShape {
  int nodes = 0;
  int appranks_per_node = 1;
  int degree = 1;
  int cores = 1;
  double weight = 1.0;  ///< share of runtimes built with this shape
};

/// The shapes `cfg` builds: its own, or one per service job template,
/// weighted by arrival frequency.
std::vector<GraphShape> graph_shapes(const core::RuntimeConfig& cfg) {
  const int cores = cfg.cluster.nodes.front().cores;
  if (!cfg.svc.enabled) {
    return {{cfg.cluster.node_count(), cfg.appranks_per_node, cfg.degree,
             cores, 1.0}};
  }
  std::vector<GraphShape> shapes;
  for (const svc::JobTemplate& tpl : cfg.svc.templates) {
    shapes.push_back(
        {tpl.nodes, tpl.appranks_per_node, tpl.degree, cores, tpl.weight});
  }
  return shapes;
}

/// graph::build_expander and solver::solve_allocation at the workload's
/// problem shapes, weighted per runtime.
void time_graph_and_solver(const core::RuntimeConfig& cfg, Values& v) {
  double build = 0.0, solve = 0.0, weights = 0.0;
  for (const GraphShape& shape : graph_shapes(cfg)) {
    graph::ExpanderParams params;
    params.nodes = shape.nodes;
    params.appranks_per_node = shape.appranks_per_node;
    params.degree = shape.degree;
    params.seed = cfg.seed;
    graph::ExpanderResult expander;
    build += shape.weight *
             time_per_call([&] { expander = graph::build_expander(params); },
                           0.3, 5);

    // Imbalanced work estimates: each apprank between one and two times
    // its home node's share of cores.
    solver::AllocationProblem problem;
    problem.graph = &expander.graph;
    problem.node_cores.assign(static_cast<std::size_t>(shape.nodes),
                              shape.cores);
    sim::Rng rng(cfg.seed);
    for (int a = 0; a < shape.nodes * shape.appranks_per_node; ++a) {
      problem.work.push_back(rng.uniform(1.0, 2.0) * shape.cores /
                             shape.appranks_per_node);
    }
    solve += shape.weight *
             time_per_call([&] { (void)solver::solve_allocation(problem); },
                           0.3, 5);
    weights += shape.weight;
  }
  v["graph.expander_build_s"] = build / weights;
  v["solver.solve_s"] = solve / weights;
}

// --- driver -------------------------------------------------------------------

struct Run {
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::vector<double> setups;  ///< dedicated set-up repetitions
};

/// Appends set-up times: construct and destroy repeatedly for `budget_s`
/// (at least 3 times), timing construction only. main() calls this before
/// every simulation, so the samples span the whole run, and repetition
/// takes the cold first construction out.
void sample_setups(const std::function<double()>& construct_once,
                   double budget_s, std::vector<double>& times) {
  const auto start = Clock::now();
  for (int reps = 0;
       reps < 3 || (seconds_between(start, Clock::now()) < budget_s &&
                    reps < 2000);
       ++reps) {
    times.push_back(construct_once());
  }
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "GCC " __VERSION__;
#else
  return "unknown";
#endif
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val != "0";
    } else if (key == "--scratch") {
      o.scratch = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload != "paper_micropp" && o.workload != "fabric_fattree" &&
      o.workload != "svc_overload") {
    throw std::invalid_argument("unknown workload \"" + o.workload + "\"");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }

  const bool service = opt.workload == "svc_overload";
  BatchShape batch;
  core::RuntimeConfig service_cfg;
  if (service) {
    service_cfg = svc_overload(opt.seed);
  } else if (opt.workload == "paper_micropp") {
    batch = paper_micropp(opt.seed);
  } else {
    batch = fabric_fattree(opt.seed, opt.scratch);
  }
  const auto simulate = [&](bool traced) {
    Sample s = service ? run_service(service_cfg, traced)
                       : run_batch(batch, traced);
    std::fprintf(stderr,
                 "perfbench_driver: %s simulation: setup %.6f s, run %.6f s, "
                 "wall %.6f s\n",
                 traced ? "traced" : "untraced", s.setup_s, s.run_s, s.wall_s);
    return s;
  };
  const auto construct_once = [&] {
    const auto t0 = Clock::now();
    if (service) {
      svc::JobManager mgr(service_cfg);
      return seconds_between(t0, Clock::now());
    }
    double s = 0.0;
    {
      std::unique_ptr<core::Workload> app = batch.make_workload();
      core::ClusterRuntime rt(batch.config);
      s = seconds_between(t0, Clock::now());
    }
    if (batch.config.obs.stream.enabled) {
      std::filesystem::remove(batch.config.obs.stream.path);
    }
    return s;
  };

  Run run;
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  if (!opt.trace) {
    // At least two simulations, so every run also checks that repeats of
    // the seed are bit-identical.
    while (run.untraced.size() < 2 || elapsed() < opt.seconds) {
      sample_setups(construct_once, 0.2, run.setups);
      run.untraced.push_back(simulate(false));
    }
  } else {
    while (run.traced.empty() || elapsed() < opt.seconds) {
      run.untraced.push_back(simulate(false));
      run.traced.push_back(simulate(true));
    }
  }

  std::vector<std::string> errors;
  int failed = 0;
  const std::string& reference = run.untraced.front().fingerprint;
  for (const std::vector<Sample>* group : {&run.untraced, &run.traced}) {
    for (const Sample& s : *group) {
      bool ok = s.errors.empty();
      for (const std::string& e : s.errors) errors.push_back(e);
      if (s.fingerprint != reference) {
        ok = false;
        errors.push_back("simulated outputs differ between repeats (" +
                         s.fingerprint + " vs " + reference + ")");
      }
      if (!ok) ++failed;
    }
  }

  const auto collect = [](const std::vector<Sample>& samples,
                          const std::function<double(const Sample&)>& f) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(f(s));
    return median(v);
  };

  Values metrics;
  if (!opt.trace) {
    metrics["wall_s"] =
        collect(run.untraced, [](const Sample& s) { return s.wall_s; });
    // Set-up is short enough to be hit or missed by contention from other
    // tenants of a shared host: within one run its median swings by a
    // quarter while the lower decile holds within a few percent.
    metrics["setup_s"] = quantile(run.setups, 0.1);
    metrics["tasks_per_s"] = collect(run.untraced, [](const Sample& s) {
      return s.run_s > 0.0 ? s.tasks / s.run_s : 0.0;
    });
    metrics["peak_rss_mb"] = prof::peak_rss_mb();
  } else {
    for (const auto& entry : run.traced.front().layers) {
      const std::string& key = entry.first;
      metrics[key] = collect(run.traced,
                             [&](const Sample& s) { return s.layers.at(key); });
    }
    const double untraced_wall =
        collect(run.untraced, [](const Sample& s) { return s.wall_s; });
    const double traced_wall =
        collect(run.traced, [](const Sample& s) { return s.wall_s; });
    metrics["trace.overhead"] =
        untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0;
    time_graph_and_solver(service ? service_cfg : batch.config, metrics);
  }
  const Values& sim = run.untraced.front().sim;
  metrics["sim_vs_perfect"] = sim.at("vs_perfect");
  metrics["sim_goodput"] = sim.at("goodput");
  metrics["sim_latency_p99_s"] = sim.at("latency_p99_s");

  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    if (i > 0) errs += ", ";
    errs += quote(errors[i]);
  }
  errs += "]";
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"trace\": %d, \"build_type\": %s, \"compiler\": %s, "
      "\"asserts\": %s, \"nproc\": %u, \"simulations\": %zu, "
      "\"failed\": %d, \"errors\": %s, \"fingerprint\": %s, \"sim\": %s, "
      "\"metrics\": %s}\n",
      quote(opt.workload).c_str(), opt.seed, opt.trace ? 1 : 0,
      quote(PERFBENCH_BUILD_TYPE).c_str(), quote(compiler()).c_str(),
      asserts ? "true" : "false", std::thread::hardware_concurrency(),
      run.untraced.size() + run.traced.size(), failed, errs.c_str(),
      quote(reference).c_str(), render(sim).c_str(), render(metrics).c_str());
  return 0;
}
