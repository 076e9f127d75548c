// Integration tests asserting the paper's qualitative results end to end
// (with tolerances — these are the claims EXPERIMENTS.md tracks).
#include <gtest/gtest.h>

#include "apps/micropp/workload.hpp"
#include "apps/nbody/workload.hpp"
#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "metrics/imbalance.hpp"

namespace tlb {
namespace {

core::RuntimeConfig cluster_config(sim::ClusterSpec cluster, int per_node,
                                   int degree, bool dlb = true,
                                   core::PolicyKind policy =
                                       core::PolicyKind::Global) {
  core::RuntimeConfig cfg;
  cfg.cluster = std::move(cluster);
  cfg.appranks_per_node = per_node;
  cfg.degree = degree;
  cfg.lewi = dlb;
  cfg.drom = dlb;
  cfg.policy = dlb ? policy : core::PolicyKind::None;
  return cfg;
}

apps::micropp::MicroPPConfig micropp_cfg(int appranks) {
  apps::micropp::MicroPPConfig cfg;
  cfg.appranks = appranks;
  cfg.iterations = 12;
  cfg.elements_per_rank = 4096;
  cfg.elements_per_task = 16;
  cfg.heavy_rank_fraction = 0.25;
  cfg.nonlinear_fraction_heavy = 0.55;
  cfg.core_flops_rate = 5e7;
  return cfg;
}

// Paper §7.1 / abstract: offloading reduces MicroPP time-to-solution by
// roughly half versus single-node DLB (46-49% in the paper; we accept
// anything beyond 30%) and lands near the perfect-balance bound.
TEST(PaperClaims, MicroPPOffloadingBeatsDlbByALot) {
  apps::micropp::MicroPPWorkload wl_dlb(micropp_cfg(16));
  const auto dlb =
      core::ClusterRuntime(cluster_config(sim::ClusterSpec::homogeneous(8, 48),
                                          2, 1))
          .run(wl_dlb);
  apps::micropp::MicroPPWorkload wl_off(micropp_cfg(16));
  const auto off =
      core::ClusterRuntime(cluster_config(sim::ClusterSpec::homogeneous(8, 48),
                                          2, 4))
          .run(wl_off);
  const double reduction = 1.0 - off.makespan / dlb.makespan;
  EXPECT_GT(reduction, 0.30);
  EXPECT_LT(off.makespan, off.perfect_time * 1.25);
}

// Paper §7.2: the local policy balances too, but trails the global policy
// and offloads more work.
TEST(PaperClaims, LocalPolicyTrailsGlobalButBalances) {
  apps::micropp::MicroPPWorkload wl_g(micropp_cfg(8));
  const auto global =
      core::ClusterRuntime(cluster_config(sim::ClusterSpec::homogeneous(8, 48),
                                          1, 4))
          .run(wl_g);
  apps::micropp::MicroPPWorkload wl_l(micropp_cfg(8));
  const auto local =
      core::ClusterRuntime(cluster_config(sim::ClusterSpec::homogeneous(8, 48),
                                          1, 4, true,
                                          core::PolicyKind::Local))
          .run(wl_l);
  // Both converge near the perfect bound (on few nodes the local policy
  // can even edge ahead — it adjusts every 100 ms vs the global 2 s
  // period; the paper's local-policy deficit appears at 32+ nodes)...
  EXPECT_LT(global.makespan, global.perfect_time * 1.45);
  EXPECT_LT(local.makespan, local.perfect_time * 1.45);
  EXPECT_NEAR(local.makespan, global.makespan, 0.25 * global.makespan);
  // ...and the local policy's signature is more offloaded work (Fig 5).
  EXPECT_GT(local.work_offloaded, global.work_offloaded);
}

// Paper §7.3: synthetic imbalance sweep — degree 4 stays within ~20% of
// the perfect bound for imbalance up to 2 on 8 nodes, and execution time
// under DLB-only grows linearly with the imbalance.
TEST(PaperClaims, SyntheticDegree4NearPerfectUpToImbalance2) {
  for (double imb : {1.0, 1.5, 2.0}) {
    apps::SyntheticConfig scfg;
    scfg.appranks = 8;
    scfg.iterations = 6;
    scfg.tasks_per_rank = 320;
    scfg.imbalance = imb;
    apps::SyntheticWorkload wl(scfg);
    const auto r = core::ClusterRuntime(
                       cluster_config(sim::ClusterSpec::homogeneous(8, 16), 1,
                                      4))
                       .run(wl);
    EXPECT_LT(r.makespan, r.perfect_time * 1.20) << "imbalance " << imb;
  }
}

TEST(PaperClaims, DlbOnlyTimeGrowsLinearlyWithImbalance) {
  double prev = 0.0;
  for (double imb : {1.0, 2.0, 3.0}) {
    apps::SyntheticConfig scfg;
    scfg.appranks = 8;
    scfg.iterations = 2;
    scfg.tasks_per_rank = 160;
    scfg.imbalance = imb;
    apps::SyntheticWorkload wl(scfg);
    const auto r = core::ClusterRuntime(
                       cluster_config(sim::ClusterSpec::homogeneous(8, 16), 1,
                                      1))
                       .run(wl);
    if (prev > 0.0) {
      // Time ratio tracks the imbalance ratio (max rank dominates).
      EXPECT_GT(r.makespan, prev * 1.3);
    }
    prev = r.makespan;
  }
}

// Paper §7.4 (Fig 9): LeWI-only ~83% of baseline, DROM-only ~65%, both
// best. We assert the ordering and loose bands.
TEST(PaperClaims, LewiAndDromRolesMatchFig9) {
  auto run = [&](bool lewi, bool drom) {
    core::RuntimeConfig cfg =
        cluster_config(sim::ClusterSpec::homogeneous(4, 48), 1, 2);
    cfg.lewi = lewi;
    cfg.drom = drom;
    cfg.policy = drom ? core::PolicyKind::Global : core::PolicyKind::None;
    apps::micropp::MicroPPWorkload wl(micropp_cfg(4));
    return core::ClusterRuntime(cfg).run(wl).makespan;
  };
  const double baseline = run(false, false);
  const double lewi = run(true, false);
  const double drom = run(false, true);
  const double both = run(true, true);

  EXPECT_LT(lewi, baseline * 0.95);   // LeWI helps...
  EXPECT_GT(lewi, baseline * 0.65);   // ...but borrowed cores are limited
  EXPECT_LT(drom, lewi);              // DROM beats LeWI alone
  EXPECT_LE(both, drom * 1.02);       // combination is best (or ties)
}

// Paper §7.5 (Fig 10): with an emulated 3x slow rank, offloading keeps the
// time near optimal in both imbalance directions.
TEST(PaperClaims, EmulatedSlowRankHandledBothDirections) {
  for (const bool slow_has_most : {false, true}) {
    apps::SyntheticConfig scfg;
    scfg.appranks = 8;
    scfg.iterations = 4;
    scfg.tasks_per_rank = 160;
    scfg.imbalance = 2.0;
    scfg.slow_rank = 0;
    scfg.slow_factor = 3.0;
    if (slow_has_most) {
      scfg.worst_rank = 0;
    } else {
      scfg.worst_rank = 7;
      scfg.least_rank = 0;
    }
    apps::SyntheticWorkload wl_off(scfg);
    const auto off = core::ClusterRuntime(
                         cluster_config(sim::ClusterSpec::homogeneous(8, 16),
                                        1, 4))
                         .run(wl_off);
    apps::SyntheticWorkload wl_dlb(scfg);
    const auto dlb = core::ClusterRuntime(
                         cluster_config(sim::ClusterSpec::homogeneous(8, 16),
                                        1, 1))
                         .run(wl_dlb);
    EXPECT_LT(off.makespan, dlb.makespan * 0.75)
        << "slow_has_most=" << slow_has_most;
    EXPECT_LT(off.makespan, off.perfect_time * 1.6);
  }
}

// Paper §7.6 (Fig 11): with DROM the node imbalance converges close to
// 1.0; LeWI-only stays noticeably above it.
TEST(PaperClaims, DromConvergesNodeImbalanceLewiOnlyDoesNot) {
  auto tail_imbalance = [&](bool drom) {
    core::RuntimeConfig cfg =
        cluster_config(sim::ClusterSpec::homogeneous(4, 16), 1, 4);
    cfg.drom = drom;
    cfg.policy = drom ? core::PolicyKind::Global : core::PolicyKind::None;
    apps::SyntheticConfig scfg;
    scfg.appranks = 4;
    scfg.iterations = 8;
    scfg.tasks_per_rank = 480;
    scfg.imbalance = 4.0;
    apps::SyntheticWorkload wl(scfg);
    core::ClusterRuntime rt(cfg);
    const auto r = rt.run(wl);
    std::vector<trace::StepSeries> node_busy;
    for (int n = 0; n < 4; ++n) node_busy.push_back(rt.recorder().node_busy(n));
    const auto series =
        metrics::node_imbalance_series(node_busy, 0.0, r.makespan, 24);
    double tail = 0.0;
    for (int b = 16; b < 24; ++b) tail += series[static_cast<std::size_t>(b)];
    return tail / 8.0;
  };
  const double with_drom = tail_imbalance(true);
  const double lewi_only = tail_imbalance(false);
  EXPECT_LT(with_drom, 1.10);
  EXPECT_GT(lewi_only, with_drom);
}

// Paper §7.1 (Fig 6c): n-body with one slow node — DLB helps a little,
// offloading recovers far more.
TEST(PaperClaims, NBodySlowNodeRescuedByOffloading) {
  apps::nbody::NBodyConfig ncfg;
  ncfg.appranks = 16;
  ncfg.iterations = 8;
  ncfg.bodies = 4096;
  ncfg.blocks_per_rank = 32;
  ncfg.orb_chunk = 64;
  ncfg.dt = 5e-3;
  ncfg.cluster_fraction = 0.4;
  ncfg.seconds_per_interaction = 1.0e-4;

  auto run = [&](int degree, bool dlb) {
    apps::nbody::NBodyWorkload wl(ncfg);
    return core::ClusterRuntime(
               cluster_config(sim::ClusterSpec::with_slow_node(8, 16, 0, 0.6),
                              2, degree, dlb))
        .run(wl);
  };
  const auto baseline = run(1, false);
  const auto dlb = run(1, true);
  const auto offload = run(3, true);
  EXPECT_LE(dlb.makespan, baseline.makespan * 1.01);
  EXPECT_LT(offload.makespan, dlb.makespan * 0.85);
  EXPECT_GT(offload.offload_fraction(), 0.1);
}

// The expander-graph claim (§5.2/§7.3): degree 4 suffices up to 64 nodes —
// increasing beyond it buys little.
TEST(PaperClaims, Degree4SufficesAtScale) {
  auto run_degree = [&](int degree) {
    apps::SyntheticConfig scfg;
    scfg.appranks = 32;
    scfg.iterations = 4;
    scfg.tasks_per_rank = 160;
    scfg.imbalance = 2.0;
    apps::SyntheticWorkload wl(scfg);
    return core::ClusterRuntime(
               cluster_config(sim::ClusterSpec::homogeneous(32, 16), 1,
                              degree))
        .run(wl)
        .makespan;
  };
  const double deg2 = run_degree(2);
  const double deg4 = run_degree(4);
  const double deg8 = run_degree(8);
  EXPECT_LT(deg4, deg2);                // connectivity still pays at 4
  EXPECT_GT(deg8, deg4 * 0.85);         // ...but 8 buys little beyond 4
}

}  // namespace
}  // namespace tlb
