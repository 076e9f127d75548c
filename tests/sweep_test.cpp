// Property sweeps: runtime invariants that must hold across the whole
// configuration space (nodes x ranks-per-node x degree x policy x
// imbalance), plus end-to-end checks of the trace/report exporters on a
// real run.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "dlb/report.hpp"
#include "metrics/imbalance.hpp"
#include "trace/paraver.hpp"

namespace tlb {
namespace {

struct SweepCase {
  int nodes;
  int cores;
  int per_node;
  int degree;
  core::PolicyKind policy;
  double imbalance;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  const std::string p = core::to_string(c.policy);
  // Built by appending to a named string: GCC 12 at -O3 raises a false
  // -Wrestrict on `"literal" + std::to_string(...)`.
  std::string name = "n";
  name += std::to_string(c.nodes) + "x" + std::to_string(c.cores) + "_r" +
          std::to_string(c.per_node) + "_d" + std::to_string(c.degree) +
          "_" + p + "_i" + std::to_string(static_cast<int>(c.imbalance * 10));
  return name;
}

class RuntimeSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RuntimeSweep, InvariantsHold) {
  const SweepCase& c = GetParam();
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(c.nodes, c.cores);
  cfg.appranks_per_node = c.per_node;
  cfg.degree = c.degree;
  cfg.policy = c.policy;
  cfg.lewi = c.policy != core::PolicyKind::None;
  cfg.drom = c.policy != core::PolicyKind::None;
  cfg.global_period = 0.25;
  cfg.local_period = 0.05;

  apps::SyntheticConfig scfg;
  scfg.appranks = c.nodes * c.per_node;
  scfg.iterations = 3;
  scfg.tasks_per_rank = 24;
  scfg.imbalance = c.imbalance;
  apps::SyntheticWorkload wl(scfg);

  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);

  // 1. Every task executed exactly once, none lost.
  EXPECT_EQ(r.tasks_total,
            static_cast<std::uint64_t>(scfg.appranks * scfg.iterations *
                                       scfg.tasks_per_rank));
  // 2. The makespan never beats the perfect-balance bound.
  EXPECT_GE(r.makespan, r.perfect_time * 0.999);
  // 3. Work accounting is consistent.
  EXPECT_GE(r.work_total, r.work_offloaded);
  // 4. Offloading requires helpers.
  if (c.degree == 1) {
    EXPECT_EQ(r.tasks_offloaded, 0u);
    EXPECT_EQ(r.transfer_bytes, 0u);
  }
  // 5. Ownership: per (node, apprank) owned counts stay within node
  //    capacity and every resident worker keeps >= 1 core at the end.
  const auto& topo = rt.topology();
  for (int n = 0; n < topo.node_count(); ++n) {
    double owned_sum = 0.0;
    for (core::WorkerId w : topo.workers_on_node(n)) {
      const double owned =
          rt.recorder().owned(n, topo.worker(w).apprank).value_at(r.makespan);
      EXPECT_GE(owned, 1.0);
      owned_sum += owned;
    }
    EXPECT_DOUBLE_EQ(owned_sum, static_cast<double>(c.cores));
    // 6. Busy cores never exceed the node's capacity.
    EXPECT_LE(rt.recorder().node_busy(n).max_value(),
              static_cast<double>(c.cores) + 1e-9);
  }
  // 7. Iteration accounting.
  EXPECT_EQ(static_cast<int>(r.iteration_times.size()), scfg.iterations);
  double sum = 0.0;
  for (double t : r.iteration_times) sum += t;
  EXPECT_NEAR(sum, r.makespan, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Space, RuntimeSweep,
    ::testing::Values(
        SweepCase{1, 4, 1, 1, core::PolicyKind::None, 1.0},
        SweepCase{2, 4, 1, 2, core::PolicyKind::Global, 2.0},
        SweepCase{2, 8, 2, 2, core::PolicyKind::Global, 1.5},
        SweepCase{2, 8, 2, 2, core::PolicyKind::Local, 1.5},
        SweepCase{4, 4, 1, 1, core::PolicyKind::Global, 3.0},
        SweepCase{4, 8, 1, 3, core::PolicyKind::Global, 2.5},
        SweepCase{4, 8, 1, 3, core::PolicyKind::Local, 2.5},
        SweepCase{4, 8, 2, 2, core::PolicyKind::Global, 4.0},
        SweepCase{8, 8, 1, 4, core::PolicyKind::Global, 2.0},
        SweepCase{8, 8, 1, 4, core::PolicyKind::Local, 2.0},
        SweepCase{8, 16, 2, 4, core::PolicyKind::Global, 3.0},
        SweepCase{8, 4, 1, 2, core::PolicyKind::None, 1.5},
        SweepCase{16, 8, 1, 4, core::PolicyKind::Global, 2.0},
        SweepCase{16, 8, 2, 3, core::PolicyKind::Local, 1.2}),
    case_name);

TEST(Exporters, ParaverAndTalpFromRealRun) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(2, 4);
  cfg.appranks_per_node = 1;
  cfg.degree = 2;
  apps::SyntheticConfig scfg;
  scfg.appranks = 2;
  scfg.iterations = 2;
  scfg.tasks_per_rank = 16;
  scfg.imbalance = 2.0;
  apps::SyntheticWorkload wl(scfg);
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);

  const std::string prv = trace::to_paraver(rt.recorder(), r.makespan);
  EXPECT_EQ(prv.rfind("#Paraver", 0), 0u);
  // At least one busy event per apprank made it into the trace.
  EXPECT_NE(prv.find(":90000001:"), std::string::npos);
  EXPECT_NE(prv.find(":90000002:"), std::string::npos);
  const std::string row = trace::paraver_row_labels(rt.recorder());
  EXPECT_NE(row.find("LEVEL THREAD SIZE 4"), std::string::npos);
}

TEST(Sweep, SlowNodeMakespanMonotoneInSpeed) {
  double prev = 0.0;
  for (double speed : {0.4, 0.6, 0.8, 1.0}) {
    core::RuntimeConfig cfg;
    cfg.cluster = sim::ClusterSpec::with_slow_node(4, 8, 0, speed);
    cfg.appranks_per_node = 1;
    cfg.degree = 1;
    cfg.policy = core::PolicyKind::None;
    cfg.lewi = false;
    cfg.drom = false;
    apps::SyntheticConfig scfg;
    scfg.appranks = 4;
    scfg.iterations = 2;
    scfg.tasks_per_rank = 32;
    apps::SyntheticWorkload wl(scfg);
    const auto r = core::ClusterRuntime(cfg).run(wl);
    if (prev > 0.0) {
      EXPECT_LT(r.makespan, prev) << "speed " << speed;
    }
    prev = r.makespan;
  }
}

TEST(Sweep, HigherDegreeNeverMuchWorseOnImbalance) {
  // Weak monotonicity: adding connectivity should not cost more than a
  // small constant factor on an imbalanced load.
  double prev = 1e100;
  for (int degree : {1, 2, 3, 4}) {
    core::RuntimeConfig cfg;
    cfg.cluster = sim::ClusterSpec::homogeneous(4, 8);
    cfg.appranks_per_node = 1;
    cfg.degree = degree;
    apps::SyntheticConfig scfg;
    scfg.appranks = 4;
    scfg.iterations = 3;
    scfg.tasks_per_rank = 48;
    scfg.imbalance = 2.5;
    apps::SyntheticWorkload wl(scfg);
    const auto r = core::ClusterRuntime(cfg).run(wl);
    EXPECT_LT(r.makespan, prev * 1.10) << "degree " << degree;
    prev = std::min(prev, r.makespan);
  }
}

}  // namespace
}  // namespace tlb
