// Golden schedule fingerprint shared by the determinism tests: FNV-1a over
// every task's placement and timing plus the makespan and event count.
// Two runs with equal fingerprints made the same schedule bit for bit.
// The shared golden runs (tlb::golden) and their pinned fingerprints live
// here too, so every subsystem that must not move a schedule checks the
// same runs against the same values.
#pragma once

#include <cstdint>
#include <cstring>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"

namespace tlb::core {

inline std::uint64_t schedule_fingerprint(const ClusterRuntime& rt,
                                          const RunResult& r) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
    return h;
  };
  auto bits = [](double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  auto signed_bits = [](int v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  };
  std::uint64_t h = 1469598103934665603ull;
  const nanos::TaskPool& pool = rt.tasks();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const nanos::Task& t = pool.get(static_cast<nanos::TaskId>(i));
    h = mix(h, t.id);
    h = mix(h, signed_bits(t.scheduled_node));
    h = mix(h, signed_bits(t.executed_worker));
    h = mix(h, signed_bits(t.executed_core));
    h = mix(h, static_cast<std::uint64_t>(t.executions));
    h = mix(h, bits(t.start_at));
    h = mix(h, bits(t.finish_at));
  }
  h = mix(h, bits(r.makespan));
  h = mix(h, r.events_fired);
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
