// Golden schedule fingerprint shared by the determinism tests: FNV-1a over
// every task's placement and timing (nanos::TaskPool::digest) plus the
// makespan and event count.
// Two runs with equal fingerprints made the same schedule bit for bit.
// The shared golden runs (tlb::golden) and their pinned fingerprints live
// here too, so every subsystem that must not move a schedule checks the
// same runs against the same values.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"

namespace tlb::core {

inline std::uint64_t schedule_fingerprint(const ClusterRuntime& rt,
                                          const RunResult& r) {
  // The pool folds each task's placement and timing into its digest as
  // the task retires; a completed run has retired every task.
  const nanos::TaskPool& pool = rt.tasks();
  if (pool.retired() != pool.size()) {
    throw std::logic_error("schedule_fingerprint: the run did not complete");
  }
  std::uint64_t h = pool.digest();
  h = nanos::fnv_mix(h, std::bit_cast<std::uint64_t>(r.makespan));
  h = nanos::fnv_mix(h, r.events_fired);
  return h;
}

}  // namespace tlb::core

namespace tlb::golden {

// Captured from the binary that still hard-coded the §5.5 rule in
// core/runtime.cpp, before the scheduler, obs, stream, prof and hier
// subsystems existed. None of them may move these for sched=locality:
// they record or schedule, never perturb the default run.
constexpr std::uint64_t kGoldenPlain = 0x5515139c5bf2c300ull;
constexpr std::uint64_t kGoldenCrash = 0x58b761ad63ad7735ull;
constexpr std::uint64_t kGoldenNet = 0xb613ed57f79b2e8aull;

/// The kGoldenPlain run: 4 nodes x 8 cores, two appranks per node,
/// degree 3, global policy, analytic network.
inline core::RuntimeConfig plain_config() {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 8);
  cfg.appranks_per_node = 2;
  cfg.degree = 3;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  return cfg;
}

inline apps::SyntheticConfig plain_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 8;
  cfg.imbalance = 1.8;
  cfg.iterations = 3;
  cfg.tasks_per_rank = 40;
  return cfg;
}

/// The kGoldenNet run: 4 nodes x 4 cores on a fat-tree of two-node
/// leaves and one spine, 1 MiB task inputs routed as flows.
inline core::RuntimeConfig net_config() {
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

inline apps::SyntheticConfig net_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 4;
  cfg.iterations = 2;
  cfg.tasks_per_rank = 24;
  cfg.imbalance = 2.0;
  cfg.bytes_per_task = 1 << 20;
  return cfg;
}

}  // namespace tlb::golden
