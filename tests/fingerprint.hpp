// Golden schedule fingerprint shared by the determinism tests: FNV-1a over
// every task's placement and timing plus the makespan and event count.
// Two runs with equal fingerprints made the same schedule bit for bit.
#pragma once

#include <cstdint>
#include <cstring>

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
