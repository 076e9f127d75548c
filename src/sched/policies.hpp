// The shipped scheduling policies (see sched/scheduler.hpp for the
// interface and core/sched_table.hpp for name-based construction).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/ewma.hpp"
#include "sched/scheduler.hpp"

namespace tlb::sched {

/// "locality" — the paper's §5.5 rule, extracted verbatim from the
/// pre-subsystem runtime. The default; golden-schedule regression tests
/// pin its placements bit-identically to the legacy implementation.
class LocalityScheduler final : public Scheduler {
 public:
  explicit LocalityScheduler(const RuntimeView& view) : Scheduler(view) {}
  [[nodiscard]] const char* name() const override { return "locality"; }
  [[nodiscard]] Decision pick(const nanos::Task& task) override;
};

/// "congestion" — locality extended with interconnect feedback: each
/// candidate is costed by its estimated input-transfer time over the
/// *currently loaded* path (net::LinkLoadView) plus an EWMA of the flow
/// completion times this helper's past offloads observed. Candidates
/// whose path is saturated (>= kCongestionAvoid) with input
/// bytes still to move are vetoed, steering offloads away from hot
/// uplinks; when every remote option is vetoed the task is held centrally
/// (idle workers pull it later — deferring beats streaming into a full
/// queue). Without a fabric (analytic model) there is no signal and the
/// policy decays to the locality rule exactly.
class CongestionScheduler final : public Scheduler {
 public:
  /// EWMA factor for the per-helper flow-completion-time estimate:
  /// ewma = smoothing * ewma + (1 - smoothing) * observed.
  static constexpr double kFctSmoothing = 0.7;
  /// Weight of the per-helper FCT estimate in the candidate cost
  /// (seconds of penalty per second of smoothed FCT). Deliberately small:
  /// observed FCTs include whole-transfer queueing and run ~100x the
  /// instantaneous per-task transfer estimates, and the EWMA lags the
  /// fabric state — as a primary signal it causes anti-locality
  /// ping-ponging (steering to whichever helper was not used recently).
  /// At this scale it breaks ties between similarly-loaded paths while
  /// the live link utilization leads the decision.
  static constexpr double kFctPenalty = 0.02;

  explicit CongestionScheduler(const RuntimeView& view) : Scheduler(view) {}
  [[nodiscard]] const char* name() const override { return "congestion"; }
  [[nodiscard]] Decision pick(const nanos::Task& task) override;
  void on_inputs_landed(core::WorkerId w, sim::SimTime fct) override;

  /// Smoothed flow-completion time of offload inputs towards `w`
  /// (seconds; 0 until the first observation).
  [[nodiscard]] double fct_estimate(core::WorkerId w) const {
    return static_cast<std::size_t>(w) < fct_ewma_.size()
               ? fct_ewma_[static_cast<std::size_t>(w)]
               : 0.0;
  }

 private:
  std::vector<double> fct_ewma_;  ///< per worker (lazily grown on rewires)
};

/// "waittime" — offload aggressiveness throttled by observed task waits
/// (Samfass et al., "Lightweight Task Offloading Exploiting MPI Wait
/// Times"): while the apprank's smoothed ready-to-start wait is below
/// kWaitOffloadMin its tasks barely queue at home, so a remote placement
/// would pay transfer cost for nothing and the offload is suppressed.
/// Once waits build up the locality rule resumes — unless the chosen
/// helper's *own* smoothed queue wait exceeds the home wait
/// (kWaitHelperFactor), in which case the offload is equally pointless
/// and is suppressed too. All estimates decay with kWaitHalflife between
/// observations so an idle-then-bursty worker is never judged by stale
/// samples.
class WaittimeScheduler final : public Scheduler {
 public:
  explicit WaittimeScheduler(const RuntimeView& view) : Scheduler(view) {}
  [[nodiscard]] const char* name() const override { return "waittime"; }
  [[nodiscard]] Decision pick(const nanos::Task& task) override;
  void on_task_started(const nanos::Task& task, core::WorkerId w,
                       sim::SimTime wait) override;

  /// Smoothed ready-to-start wait of the apprank's tasks (seconds),
  /// decayed to the runtime's current clock.
  [[nodiscard]] double wait_estimate(int apprank) const {
    return static_cast<std::size_t>(apprank) < wait_ewma_.size()
               ? wait_ewma_[static_cast<std::size_t>(apprank)].read(
                     view_.now(), kWaitHalflife)
               : 0.0;
  }
  /// Smoothed queue wait of tasks that started on worker `w` (seconds),
  /// decayed to the runtime's current clock.
  [[nodiscard]] double helper_wait_estimate(core::WorkerId w) const {
    return static_cast<std::size_t>(w) < helper_ewma_.size()
               ? helper_ewma_[static_cast<std::size_t>(w)].read(
                     view_.now(), kWaitHalflife)
               : 0.0;
  }

  /// Drops every wait/helper estimate back to the never-observed state.
  /// Used by the adaptive portfolio's cold probe: waittime's suppression
  /// fixed point is only reachable from low estimates, so the probe
  /// window starts from cold instead of inheriting the previous mode's
  /// waits.
  void reset_estimates() {
    wait_ewma_.clear();
    helper_ewma_.clear();
  }

 private:
  std::vector<DecayEwma> wait_ewma_;    ///< per apprank
  std::vector<DecayEwma> helper_ewma_;  ///< per worker (grown on rewires)
};

/// "adaptive" — online portfolio selection over the fixed policies
/// (LB4OMP-style: no single technique wins every regime, so measure the
/// run and commit to what works). The portfolio holds one instance of
/// each fixed policy and delegates every victim selection to the active
/// *mode*. Selection is explore/exploit on measured throughput:
///   - explore: each mode is probed over one window of at least
///     kWindow simulated seconds while its
///     task-start rate (starts per simulated second) and mean observed
///     ready-to-start wait are recorded. In barrier-paced programs
///     decisions arrive in same-instant bursts, so a window stretches to
///     the burst-to-burst interval: each mode places one whole iteration
///     and is scored on the drained result. Throughput is
///     the election reward because it tracks the makespan objective for
///     *every* mode — waits cannot: suppression (waittime) deliberately
///     trades longer individual waits for fewer pointless transfers;
///   - elect: the highest-throughput mode wins, but the incumbent is
///     displaced only if the challenger beats it by kMargin
///     (a relative dead band — hysteresis #1);
///   - exploit: the elected mode runs for at least kDwell probe
///     windows (hysteresis #2) and then indefinitely, until a re-explore
///     trigger fires: the rolling observed wait drifts past
///     kWaitExit x the wait measured at election, or the
///     fabric-pressure regime crosses to the opposite side of the
///     [kPressureLow, kPressureHigh] dead band
///     (hysteresis #3 — oscillation inside the band never re-triggers).
/// All feedback hooks are forwarded to every sub-policy so their
/// estimators stay warm across switches, except that the waittime probe
/// opens cold (see step()).
class AdaptiveScheduler : public Scheduler {
 public:
  enum class Mode { Locality = 0, Congestion = 1, Waittime = 2 };

  /// Probe window length in simulated seconds: each mode is measured
  /// over windows of this length during an explore cycle, and the same
  /// window paces the rolling drift check during exploit. Time-based on
  /// purpose — decisions arrive in same-instant bursts (a scheduler
  /// sweep places a whole iteration's ready tasks at one sim time), so a
  /// decision-counted window can close with zero elapsed time and
  /// measure nothing.
  static constexpr sim::SimTime kWindow = 0.1;
  /// Election margin (relative dead band): a challenger displaces the
  /// incumbent mode only if its measured task-start rate exceeds
  /// (1 + kMargin) x the incumbent's. Equivalent measurements keep the
  /// incumbent — no flapping between modes that tie.
  static constexpr double kMargin = 0.05;
  /// Fabric-pressure dead band (hottest candidate-path utilization): the
  /// latched pressure regime moves only when a sample crosses
  /// >= kPressureHigh or <= kPressureLow. A regime crossing to the
  /// opposite side of the band from where the incumbent was elected
  /// triggers re-exploration; oscillation inside the band never does.
  static constexpr double kPressureHigh = 0.50;
  static constexpr double kPressureLow = 0.25;
  /// Wait-drift trigger: during exploit, a rolling window whose mean
  /// observed wait exceeds kWaitExit x the elected mode's measured wait
  /// (floored at kWaitOffloadMin) triggers re-exploration.
  static constexpr double kWaitExit = 2.0;
  /// Minimum exploit length in probe windows before any re-explore
  /// trigger is honoured (dwell): even a genuine regime change cannot
  /// flip the portfolio back immediately.
  static constexpr std::uint64_t kDwell = 16;

  explicit AdaptiveScheduler(const RuntimeView& view)
      : Scheduler(view), locality_(view), congestion_(view), waittime_(view) {}

  [[nodiscard]] const char* name() const override { return "adaptive"; }
  [[nodiscard]] Decision pick(const nanos::Task& task) override;
  void on_task_started(const nanos::Task& task, core::WorkerId w,
                       sim::SimTime wait) override;
  void on_inputs_landed(core::WorkerId w, sim::SimTime fct) override;

  /// Merged view: the sub-policies' counters (each decision was delegated
  /// to exactly one of them) plus this portfolio's switch count and
  /// signal-probe costs.
  [[nodiscard]] const SchedStats& stats() const override;

  [[nodiscard]] Mode mode() const { return mode_; }
  /// True while a probe cycle is measuring the modes (explore phase).
  [[nodiscard]] bool exploring() const { return exploring_; }
  /// The last elected (exploited) mode.
  [[nodiscard]] Mode incumbent() const { return incumbent_; }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  /// Task-start rate measured during `m`'s last probe window
  /// (starts per simulated second; 0 until measured).
  [[nodiscard]] double probe_rate(Mode m) const {
    return probe_rate_[static_cast<std::size_t>(m)];
  }
  /// Victim selections delegated while in `m` (portfolio mix).
  [[nodiscard]] std::uint64_t decisions_in(Mode m) const {
    return mode_decisions_[static_cast<std::size_t>(m)];
  }
  /// The portfolio's waittime sub-policy (estimate inspection — the cold
  /// probe's reset is observable through wait_estimate()).
  [[nodiscard]] const WaittimeScheduler& waittime() const {
    return waittime_;
  }

 protected:
  /// Hottest current path utilization from the apprank's home node to any
  /// of its usable remote candidates (0 without a fabric). Virtual so the
  /// explore/exploit logic is unit-testable with an injected signal.
  [[nodiscard]] virtual double sampled_pressure(const nanos::Task& task);

 private:
  void step(const nanos::Task& task);
  void elect();
  void set_mode(Mode m);
  [[nodiscard]] Scheduler& active() {
    switch (mode_) {
      case Mode::Congestion: return congestion_;
      case Mode::Waittime: return waittime_;
      case Mode::Locality: break;
    }
    return locality_;
  }

  LocalityScheduler locality_;
  CongestionScheduler congestion_;
  WaittimeScheduler waittime_;
  Mode mode_ = Mode::Locality;       ///< currently delegated-to mode
  Mode incumbent_ = Mode::Locality;  ///< last elected mode
  bool exploring_ = true;            ///< probe cycle in progress
  int probe_index_ = 0;              ///< position in the probe cycle (0..2)
  sim::SimTime window_start_ = 0.0;     ///< clock when the window opened
  double window_wait_sum_ = 0.0;        ///< waits observed in the window
  std::uint64_t window_waits_ = 0;      ///< = task starts in the window
  double probe_rate_[3] = {0.0, 0.0, 0.0};  ///< starts/sim-second per mode
  double probe_wait_[3] = {0.0, 0.0, 0.0};  ///< measured mean wait per mode
  double elected_wait_ = 0.0;       ///< incumbent's wait at election time
  std::uint64_t exploit_windows_ = 0;  ///< windows since the election
  int regime_ = 0;          ///< -1 below low, +1 above high (latched)
  int elected_regime_ = 0;  ///< pressure regime at election time
  std::uint64_t switches_ = 0;
  std::uint64_t probe_touched_ = 0;  ///< signal probes (cost accounting)
  std::uint64_t mode_decisions_[3] = {0, 0, 0};
  mutable SchedStats merged_;
};

}  // namespace tlb::sched
