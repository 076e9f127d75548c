// Pinned config-space sweep: net on/off x DetectionMode::{Oracle,
// Heartbeat} x {no fault, a loss + jitter window, a helper crash}, cycling
// the five scheduling policies. Each scenario checks the invariants of
// config_sweep.hpp (exactly-once completion, exact iteration count,
// non-negative iteration times, alloc tags back to zero, same seed same
// schedule, record-only toggles leave the schedule bit-identical) and
// pins its schedule fingerprint, in the style of GoldenSchedule.*.
//
// The shared-engine scenarios below do the same for svc::JobManager runs
// (net on/off x Oracle/Heartbeat), where many runtimes come and go on one
// engine while other jobs' events are still queued.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "config_sweep.hpp"
#include "svc/job_manager.hpp"

namespace tlb::sweep {
namespace {

struct Pinned {
  bool net;
  resil::DetectionMode detection;
  Fault fault;
  std::uint64_t fingerprint;
};

using resil::DetectionMode;

// Index i of this table runs sched policy kSchedPolicies[i % 5]. The
// fingerprints were captured when the sweep was added; like the goldens,
// a deliberate re-pin goes in a commit of its own.
constexpr Pinned kPins[] = {
    {false, DetectionMode::Oracle, Fault::None, 0x14ae4ad58e137aeaull},
    {false, DetectionMode::Oracle, Fault::LossJitter, 0x8c3221863b7e0944ull},
    {false, DetectionMode::Oracle, Fault::Crash, 0x3358b5de00362e28ull},
    {false, DetectionMode::Heartbeat, Fault::None, 0x7062eb771be7cf7aull},
    {false, DetectionMode::Heartbeat, Fault::LossJitter, 0x2eb661fae355aa05ull},
    {false, DetectionMode::Heartbeat, Fault::Crash, 0x7de50d35229d4274ull},
    {true, DetectionMode::Oracle, Fault::None, 0x8a29465f7f4d1206ull},
    {true, DetectionMode::Oracle, Fault::LossJitter, 0x992aa2bdae1d10f0ull},
    {true, DetectionMode::Oracle, Fault::Crash, 0x862bf8452ed1d470ull},
    {true, DetectionMode::Heartbeat, Fault::None, 0xbbdd061447182ba6ull},
    {true, DetectionMode::Heartbeat, Fault::LossJitter, 0x5976bba51e764392ull},
    {true, DetectionMode::Heartbeat, Fault::Crash, 0x1be5c115384a2111ull},
};

TEST(ConfigSweep, PinnedScenariosHoldInvariantsAndFingerprints) {
  const std::string stream_path = temp_stream_path("config_sweep");
  int index = 0;
  for (const Pinned& pin : kPins) {
    Scenario s;
    s.net = pin.net;
    s.detection = pin.detection;
    s.fault = pin.fault;
    s.sched = kSchedPolicies[index % 5];
    ++index;
    SCOPED_TRACE(describe(s));
    const std::uint64_t fp = check_scenario(s, stream_path);
    EXPECT_EQ(fp, pin.fingerprint)
        << "fingerprint 0x" << std::hex << fp << " of " << describe(s);
  }
}

// --- shared-engine scenarios (tlb::svc) --------------------------------------
//
// A small svc::JobManager: 4 x 4 cores, fig15's two tenant templates
// scaled down, Poisson arrivals over a short horizon, admission on. Every
// job is a ClusterRuntime on the manager's one engine, so these runs cover
// what standalone scenarios cannot: runtimes that start and finish while
// other jobs' events are still queued.

struct SvcScenario {
  bool net = false;
  resil::DetectionMode detection = resil::DetectionMode::Oracle;
};

std::string describe(const SvcScenario& s) {
  std::string d = "svc ";
  d += s.net ? "net" : "analytic";
  d += s.detection == resil::DetectionMode::Heartbeat ? " heartbeat"
                                                      : " oracle";
  return d;
}

core::RuntimeConfig svc_config_of(const SvcScenario& s) {
  svc::JobTemplate interactive;
  interactive.name = "interactive";
  interactive.nodes = 2;
  interactive.degree = 2;
  interactive.iterations = 2;
  interactive.tasks_per_rank = 8;
  interactive.base_duration = 0.020;
  interactive.imbalance = 1.5;
  interactive.deadline_class = 0;
  interactive.deadline = 0.4;
  interactive.weight = 4.0;

  svc::JobTemplate batch;
  batch.name = "batch";
  batch.nodes = 4;
  batch.degree = 2;
  batch.iterations = 2;
  batch.tasks_per_rank = 12;
  batch.base_duration = 0.025;
  batch.imbalance = 2.0;
  batch.deadline_class = 2;
  batch.deadline = 2.0;
  batch.weight = 1.0;

  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 4);
  cfg.appranks_per_node = 1;
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = 2024;
  cfg.record_traces = false;
  cfg.resil.detection = s.detection;
  if (s.net) {
    cfg.net.enabled = true;
    cfg.net.leaf_radix = 2;
    cfg.net.spines = 1;
  }
  cfg.svc.enabled = true;
  cfg.svc.templates = {interactive, batch};
  cfg.svc.arrivals.shape = svc::ArrivalShape::Poisson;
  cfg.svc.arrivals.rate = 12.0;
  cfg.svc.arrivals.horizon = 4.0;
  cfg.svc.fabric_pressure = 0.02;
  svc::AdmissionConfig& adm = cfg.svc.admission;
  adm.enabled = true;
  adm.bucket_rate = 12.0;
  adm.bucket_burst = 4.0;
  adm.initial_limit = 3;
  adm.min_limit = 1;
  adm.max_limit = 6;
  adm.tolerance = 2.5;
  adm.update_window = 4;
  adm.class_fractions = {1.0, 0.85, 0.6};
  adm.retry_backoff = 0.1;
  adm.retry_max = 2;
  return cfg;
}

/// FNV-1a over every SvcResult field, every JobRecord and the engine's
/// event count: equal values mean the same service run bit for bit.
std::uint64_t svc_fingerprint(const svc::SvcResult& r,
                              const std::vector<svc::JobRecord>& jobs) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    mix(b);
  };
  auto mix_int = [&mix](int v) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  };
  for (std::uint64_t v : {r.arrived, r.admitted, r.completed, r.shed,
                          r.retries, r.slo_met, r.scale_out_events,
                          r.scale_in_events, r.shed_breaker, r.breaker_trips,
                          r.engine_events}) {
    mix(v);
  }
  for (double d : {r.elapsed, r.horizon, r.goodput, r.shed_rate,
                   r.latency_p50, r.latency_p99, r.latency_mean,
                   r.queue_wait_p50, r.queue_wait_p99, r.service_mean,
                   r.cost_node_seconds, r.breaker_open_time_s}) {
    mix_double(d);
  }
  mix_int(r.final_limit);
  mix_int(r.peak_nodes);
  for (const svc::SvcClassRow& c : r.classes) {
    mix_int(c.deadline_class);
    for (std::uint64_t v : {c.arrived, c.completed, c.shed, c.slo_met}) mix(v);
  }
  for (const svc::SvcTenantRow& t : r.tenants) {
    mix_int(t.template_index);
    for (std::uint64_t v : {t.arrived, t.completed, t.shed, t.shed_breaker,
                            t.slo_met, t.breaker_trips}) {
      mix(v);
    }
    mix_double(t.latency_p99);
    mix_double(t.breaker_open_time_s);
  }
  for (const svc::JobRecord& j : jobs) {
    mix_int(j.id);
    mix_int(j.template_index);
    mix_int(j.deadline_class);
    mix_double(j.deadline);
    mix(j.job_seed);
    mix_double(j.arrival);
    mix_double(j.started);
    mix_double(j.finished);
    mix_int(j.retries);
    mix_int(static_cast<int>(j.outcome));
    mix(j.slo_met ? 1u : 0u);
  }
  return h;
}

/// Runs the service scenario with `cfg`, checks its invariants and returns
/// its fingerprint. The manager is destroyed before returning; each job's
/// runtime is destroyed during the run, soon after it completes.
std::uint64_t run_svc_checked(const core::RuntimeConfig& cfg) {
  svc::JobManager mgr(cfg);
  const svc::SvcResult r = mgr.run();
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.arrived, r.completed + r.shed);
  EXPECT_EQ(r.admitted, r.completed);
  EXPECT_EQ(r.arrived, mgr.jobs().size());
  for (const svc::JobRecord& j : mgr.jobs()) {
    EXPECT_NE(j.outcome, svc::JobOutcome::Pending) << "job " << j.id;
    if (j.outcome == svc::JobOutcome::Completed) {
      EXPECT_GE(j.started, j.arrival) << "job " << j.id;
      EXPECT_GT(j.finished, j.started) << "job " << j.id;
    }
  }
  // Each finished job's engine owner is retired at completion. Heartbeat
  // runtimes still have heartbeat and detector timers queued then, which
  // must pop as no-ops; Oracle runtimes leave nothing behind.
  if (cfg.resil.detection == resil::DetectionMode::Heartbeat) {
    EXPECT_GT(mgr.engine().retired_events(), 0u);
  } else {
    EXPECT_EQ(mgr.engine().retired_events(), 0u);
  }
  return svc_fingerprint(r, mgr.jobs());
}

/// Runs `s` plainly, again with the same seed, and with prof on (every
/// alloc tag back to zero once the manager is gone); all three must give
/// the same fingerprint, which is returned.
std::uint64_t check_svc_scenario(const SvcScenario& s) {
  const core::RuntimeConfig base = svc_config_of(s);
  const std::uint64_t fp = run_svc_checked(base);
  EXPECT_EQ(run_svc_checked(base), fp) << "same seed, different service run";

  prof::Profiler& profiler = prof::Profiler::instance();
  profiler.disable();
  profiler.reset();
  core::RuntimeConfig profiled = base;
  profiled.prof.enabled = true;
  EXPECT_EQ(run_svc_checked(profiled), fp) << "prof moved the service run";
  for (const prof::TagStats& t : profiler.alloc_stats()) {
    EXPECT_EQ(t.alive_bytes, 0) << "alloc tag " << t.tag;
  }
  profiler.disable();
  profiler.reset();
  return fp;
}

// Captured at the commit that added these scenarios, like kPins above.
constexpr struct {
  bool net;
  resil::DetectionMode detection;
  std::uint64_t fingerprint;
} kSvcPins[] = {
    {false, DetectionMode::Oracle, 0xa1cecf0975bfaeacull},
    {false, DetectionMode::Heartbeat, 0xa8ee668411241260ull},
    {true, DetectionMode::Oracle, 0xc7a45f75e53e08b4ull},
    {true, DetectionMode::Heartbeat, 0xa51b1b0ac11291a1ull},
};

TEST(ConfigSweep, SharedEngineScenariosHoldInvariantsAndFingerprints) {
  for (const auto& pin : kSvcPins) {
    SvcScenario s;
    s.net = pin.net;
    s.detection = pin.detection;
    SCOPED_TRACE(describe(s));
    const std::uint64_t fp = check_svc_scenario(s);
    EXPECT_EQ(fp, pin.fingerprint)
        << "fingerprint 0x" << std::hex << fp << " of " << describe(s);
  }
}

}  // namespace
}  // namespace tlb::sweep
