// Config-space invariant sweep shared by the pinned tier-1 sweep
// (config_sweep_test.cpp) and the randomized nightly draw
// (resil_sweep_test.cpp).
//
// A scenario fixes the structural switches of one small run: the fabric on
// or off, the failure-detection mode, one fault (none, a loss + jitter
// window, or a helper crash) and the scheduling policy. check_scenario()
// runs it six times — plain, again with the same seed, and once with each
// record-only toggle (obs.spans, obs.stream to a temp file, prof,
// record_traces = false) — and checks on every run that each task finished
// exactly once, the iteration count is exact and no iteration time is
// negative. The obs.spans run also checks its critical path against the
// successor-walk oracle (critical_path_oracle.hpp). All six runs must
// give the same schedule fingerprint, and with prof on every alloc tag
// must balance back to zero at teardown. Every run also checks one owner
// per core at each ownership change and LeWI round (watch_ownership).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "critical_path_oracle.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fingerprint.hpp"
#include "prof/prof.hpp"

namespace tlb::sweep {

enum class Fault { None, LossJitter, Crash };

/// The five registered scheduling policies (core/sched_table).
inline constexpr const char* kSchedPolicies[] = {"locality", "congestion",
                                                 "waittime", "adaptive",
                                                 "hier"};

struct Scenario {
  bool net = false;
  resil::DetectionMode detection = resil::DetectionMode::Oracle;
  Fault fault = Fault::None;
  const char* sched = "locality";
  core::PolicyKind policy = core::PolicyKind::Global;
  int nodes = 4;
  int cores = 4;
  int degree = 2;
  int iterations = 4;
  int tasks_per_rank = 40;
  double imbalance = 2.0;
  sim::SimTime fault_at = 0.3;     ///< crash instant / window start
  sim::SimTime fault_until = 1.5;  ///< window end (LossJitter)
  double loss_rate = 0.2;
  sim::SimTime jitter_max = 0.05;
};

inline std::string describe(const Scenario& s) {
  std::string d = s.net ? "net" : "analytic";
  d += s.detection == resil::DetectionMode::Heartbeat ? " heartbeat"
                                                      : " oracle";
  d += s.fault == Fault::None         ? " no-fault"
       : s.fault == Fault::LossJitter ? " loss+jitter"
                                      : " crash";
  d += " sched=";
  d += s.sched;
  d += " policy=";
  d += core::to_string(s.policy);
  // Appended piecewise: GCC 12 at -O3 raises a false -Wrestrict on
  // `"literal" + std::to_string(...)`.
  d += " nodes=";
  d += std::to_string(s.nodes);
  d += "x";
  d += std::to_string(s.cores);
  d += " degree=";
  d += std::to_string(s.degree);
  d += " tasks=";
  d += std::to_string(s.tasks_per_rank);
  return d;
}

inline core::RuntimeConfig config_of(const Scenario& s) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(s.nodes, s.cores);
  cfg.appranks_per_node = 1;
  cfg.degree = s.degree;
  cfg.policy = s.policy;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  cfg.resil.detection = s.detection;
  cfg.sched.policy = s.sched;
  if (s.net) {
    cfg.net.enabled = true;
    cfg.net.leaf_radix = 2;
    cfg.net.spines = 1;
  }
  return cfg;
}

inline apps::SyntheticConfig workload_of(const Scenario& s) {
  apps::SyntheticConfig app;
  app.appranks = s.nodes;
  app.iterations = s.iterations;
  app.tasks_per_rank = s.tasks_per_rank;
  app.imbalance = s.imbalance;
  return app;
}

/// Checks one owner per core on `rt` whenever ownership is recorded and
/// after every LeWI round: the registry's own invariants hold, and each
/// core's owner is a live resident of its node. Reports the first
/// violation of the run only.
inline void watch_ownership(core::ClusterRuntime& rt) {
  rt.observe_ownership([&rt, reported = false](
                           int node, const dlb::NodeCores& nc) mutable {
    nc.check_invariants();
    if (reported) return;
    const auto& residents = rt.topology().workers_on_node(node);
    for (int c = 0; c < nc.core_count(); ++c) {
      const dlb::WorkerId w = nc.owner(c);
      if (std::find(residents.begin(), residents.end(), w) ==
              residents.end() ||
          !rt.worker_alive(w)) {
        ADD_FAILURE() << "t=" << rt.now() << ": core " << c << " of node "
                      << node << " is owned by worker " << w
                      << ", not a live resident";
        reported = true;
        return;
      }
    }
  });
}

/// Runs `s` once with `cfg` (the scenario's config, possibly with a
/// record-only toggle set), checks the per-run invariants and returns the
/// schedule fingerprint. The runtime is destroyed before returning.
inline std::uint64_t run_checked(const Scenario& s,
                                 const core::RuntimeConfig& cfg) {
  apps::SyntheticWorkload wl(workload_of(s));
  core::ClusterRuntime rt(cfg);
  watch_ownership(rt);
  fault::FaultPlan plan;
  if (s.fault == Fault::LossJitter) {
    plan.lose_messages(s.loss_rate, s.fault_at, s.fault_until)
        .degrade_link(1.0, 1.0, s.jitter_max, s.fault_at, s.fault_until);
  } else if (s.fault == Fault::Crash) {
    plan.crash_worker(rt.topology().workers_of_apprank(0)[1], s.fault_at);
  }
  fault::FaultInjector injector(std::move(plan));
  injector.attach(rt);
  obs::oracle::CriticalPathOracle oracle;
  if (cfg.obs.spans) oracle.observe(rt);
  const core::RunResult r = rt.run(wl);

  if (rt.spans() != nullptr) {
    obs::oracle::expect_same_path(obs::critical_path(*rt.spans()),
                                  oracle.compute(*rt.spans()));
  }
  EXPECT_EQ(r.iteration_times.size(), static_cast<std::size_t>(s.iterations));
  for (std::size_t i = 0; i < r.iteration_times.size(); ++i) {
    EXPECT_GE(r.iteration_times[i], 0.0) << "iteration " << i;
  }
  // Exactly-once completion: every task finished, and each extra attempt
  // (re-queue, zombie) is accounted as a re-execution.
  EXPECT_GT(rt.tasks().size(), 0u);
  EXPECT_EQ(r.tasks_not_exactly_once, 0u);
  EXPECT_EQ(rt.outstanding_leases(), 0u);
  for (int w = 0; w < rt.topology().worker_count(); ++w) {
    EXPECT_EQ(rt.worker_pending(w), 0) << "worker " << w;
  }
  return core::schedule_fingerprint(rt, r);
}

/// Runs every variant of `s` and returns the plain run's fingerprint.
/// `stream_path` names the spill file of the obs.stream variant (removed
/// afterwards).
inline std::uint64_t check_scenario(const Scenario& s,
                                    const std::string& stream_path) {
  const core::RuntimeConfig base = config_of(s);
  const std::uint64_t fp = run_checked(s, base);
  EXPECT_EQ(run_checked(s, base), fp) << "same seed, different schedule";

  core::RuntimeConfig spans = base;
  spans.obs.spans = true;
  EXPECT_EQ(run_checked(s, spans), fp) << "obs.spans moved the schedule";

  core::RuntimeConfig stream = base;
  stream.obs.stream.enabled = true;
  stream.obs.stream.path = stream_path;
  EXPECT_EQ(run_checked(s, stream), fp) << "obs.stream moved the schedule";
  std::remove(stream_path.c_str());

  // The profiler is process-global: start from a clean slate and leave it
  // disabled for whatever runs next in this process.
  prof::Profiler& profiler = prof::Profiler::instance();
  profiler.disable();
  profiler.reset();
  core::RuntimeConfig profiled = base;
  profiled.prof.enabled = true;
  EXPECT_EQ(run_checked(s, profiled), fp) << "prof moved the schedule";
  for (const prof::TagStats& t : profiler.alloc_stats()) {
    EXPECT_EQ(t.alive_bytes, 0) << "alloc tag " << t.tag;
  }
  profiler.disable();
  profiler.reset();

  core::RuntimeConfig untraced = base;
  untraced.record_traces = false;
  EXPECT_EQ(run_checked(s, untraced), fp)
      << "record_traces = false moved the schedule";
  return fp;
}

/// A spill-file path under the system temp directory, unique per caller
/// tag so concurrently running test binaries do not share it.
inline std::string temp_stream_path(const std::string& tag) {
  std::string name = "tlb_";
  name += tag;
  name += "_spans.stream";
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace tlb::sweep
