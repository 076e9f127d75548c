// The iteration barrier as the runtime models it: released one
// dissemination cost after the last apprank's taskwait, that cost being
// ceil(log2 P) link latencies, scaled by the latency multiplier of an
// active link fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/runtime.hpp"
#include "core/workload.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace tlb {
namespace {

/// One home-only task per apprank and iteration, apprank a's lasting
/// 0.1 * (a + 1) s at nominal speed; no data to pull at the barrier.
class FixedWorkload final : public core::Workload {
 public:
  explicit FixedWorkload(int iterations) : iterations_(iterations) {}
  [[nodiscard]] int iteration_count() const override { return iterations_; }
  std::vector<core::TaskSpec> make_tasks(int apprank, int) override {
    core::TaskSpec spec;
    spec.work = work_of(apprank);
    spec.offloadable = false;
    return {spec};
  }
  static double work_of(int apprank) { return 0.1 * (apprank + 1); }

 private:
  int iterations_;
};

int ceil_log2(int p) {
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  return rounds;
}

void expect_barrier_cost(int appranks, double latency_mult) {
  SCOPED_TRACE(testing::Message() << "P=" << appranks
                                  << " latency_mult=" << latency_mult);
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(appranks, 2);
  cfg.appranks_per_node = 1;
  cfg.degree = 1;
  constexpr int kIterations = 2;
  FixedWorkload wl(kIterations);
  core::ClusterRuntime rt(cfg);
  fault::FaultPlan plan;
  if (latency_mult != 1.0) plan.degrade_link(latency_mult, 1.0, 0.0, 0.0);
  fault::FaultInjector injector(std::move(plan));
  injector.attach(rt);
  const core::RunResult r = rt.run(wl);

  const double last_taskwait = FixedWorkload::work_of(appranks - 1);
  const double barrier =
      cfg.cluster.link.latency * latency_mult * ceil_log2(appranks);
  ASSERT_EQ(r.iteration_times.size(), static_cast<std::size_t>(kIterations));
  for (double t : r.iteration_times) {
    EXPECT_NEAR(t, last_taskwait + barrier, 1e-12);
  }
  EXPECT_NEAR(r.makespan, kIterations * (last_taskwait + barrier), 1e-12);
  EXPECT_EQ(r.tasks_offloaded, 0u);
}

TEST(Barrier, ReleasedLog2LatenciesAfterTheLastTaskwait) {
  for (int p : {1, 2, 3, 4, 5}) expect_barrier_cost(p, 1.0);
}

TEST(Barrier, CostScalesWithTheLinkLatencyMultiplier) {
  for (int p : {1, 3, 5}) expect_barrier_cost(p, 50.0);
}

}  // namespace
}  // namespace tlb
