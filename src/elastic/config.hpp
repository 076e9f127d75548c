// Configuration of the elasticity subsystem (tlb::elastic).
//
// Elasticity is a service-level capacity feature: the cluster scales out
// on sustained queue pressure and scales back in on idle, without a
// restart. Its one consumer is svc::JobManager (service scenario): the
// controller decides how many of the cluster's nodes are powered on; jobs
// only dispatch onto provisioned nodes and the run is billed in
// node-seconds. A single ClusterRuntime balances one job on a fixed node
// allocation, as in the paper, and never reads this config.
//
// RuntimeConfig::elastic carries this struct. The default (enabled =
// false) is inert — no tick is scheduled, no code path reads the knobs.
#pragma once

namespace tlb::elastic {

struct ElasticConfig {
  /// Master switch. False (the default) schedules nothing.
  bool enabled = false;

  /// Node-count bounds the controller honours: powered-on node counts
  /// within the configured cluster (max_nodes is clamped to the cluster
  /// size).
  int min_nodes = 1;
  int max_nodes = 64;

  /// Controller sampling period, simulated seconds.
  double eval_period = 0.25;

  /// Pressure thresholds with hysteresis. Pressure is demand over
  /// capacity: (queued node demand + busy nodes) / powered nodes.
  /// Sustained pressure >= high_pressure for sustain_ticks consecutive
  /// samples scales out; pressure <= low_pressure for idle_ticks samples
  /// scales in. The dead band in between holds.
  double high_pressure = 1.05;
  double low_pressure = 0.60;
  int sustain_ticks = 2;
  int idle_ticks = 8;

  /// Minimum simulated time between two scaling actions (either
  /// direction) — the outer damper against provision/retire thrash.
  double cooldown = 0.5;

  /// Nodes added / removed per scaling action.
  int step = 1;

  /// Boot time of a provisioned node: it counts towards capacity (and
  /// node-seconds) immediately but becomes schedulable only after this
  /// delay.
  double provision_delay = 0.5;
};

}  // namespace tlb::elastic
