// Execution trace recorder.
//
// Captures, per (node, apprank):
//   - busy cores: number of cores executing that apprank's tasks on that
//     node (the left-hand traces of Fig 9);
//   - owned cores: DROM ownership (the right-hand traces of Fig 9);
// plus per-node totals, offload statistics and the one list of timeline
// marks. Renderers below turn the series into ASCII timelines and CSV for
// the paper's trace figures. The three series kinds are optional
// (RuntimeConfig::record_traces); marks and offload statistics are always
// kept.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/step_series.hpp"

namespace tlb::obs {
class SpanRecorder;
}

namespace tlb::trace {

/// Classification of a timeline mark. Generic and FaultInjected marks
/// render only as ASCII/CSV annotations and Chrome instants; the other
/// kinds additionally map to dedicated Paraver event types (see
/// trace/paraver.hpp).
enum class MarkKind : std::uint8_t {
  Generic,
  SchedSteer,     ///< scheduler redirected an offload (value = worker)
  SchedSuppress,  ///< scheduler suppressed an offload (value = worker)
  NetCongestion,  ///< fabric link became congested (value = link id)
  NetCleared,     ///< fabric link congestion cleared (value = link id)
  FaultInjected,  ///< a perturbation began (value = fault target)
};

/// One discrete runtime event on the timeline.
struct Mark {
  sim::SimTime t = 0.0;
  MarkKind kind = MarkKind::Generic;
  std::int64_t value = 0;
  std::string label;

  bool operator==(const Mark&) const = default;
};

class Recorder {
 public:
  /// With `series` false, busy_delta and set_owned record nothing and every
  /// busy / owned / node-busy series stays empty.
  Recorder(int nodes, int appranks, bool series = true);

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int appranks() const { return appranks_; }

  void busy_delta(sim::SimTime t, int node, int apprank, int delta);
  void set_owned(sim::SimTime t, int node, int apprank, int count);
  void task_executed(int apprank, int node, int home_node, double work);

  /// Records one discrete event (fault injection or recovery, detection
  /// verdict, scheduler verdict, congestion change, policy switch). This is
  /// the only timeline channel: ASCII/CSV, Paraver, the Chrome trace, the
  /// spill file and the recovery analysis all read these marks. Times must
  /// be non-decreasing: a violation asserts in debug builds and is clamped
  /// to the previous mark's time in release builds, so the list stays
  /// sorted either way. With a span store attached the mark is also handed
  /// to it as an instant.
  void mark(sim::SimTime t, MarkKind kind, std::int64_t value,
            std::string label);
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }

  /// Forwards every later mark to `spans` as a named instant; null
  /// detaches. The store must outlive its attachment.
  void attach_spans(obs::SpanRecorder* spans) { spans_ = spans; }

  [[nodiscard]] const StepSeries& busy(int node, int apprank) const;
  [[nodiscard]] const StepSeries& owned(int node, int apprank) const;
  /// Total busy cores on a node (all appranks).
  [[nodiscard]] const StepSeries& node_busy(int node) const;

  // Offload statistics (paper Fig 5 discussion: the global policy
  // minimises task offloading).
  [[nodiscard]] std::uint64_t tasks_total() const { return tasks_total_; }
  [[nodiscard]] std::uint64_t tasks_offloaded() const { return tasks_off_; }
  [[nodiscard]] double work_total() const { return work_total_; }
  [[nodiscard]] double work_offloaded() const { return work_off_; }
  [[nodiscard]] double offload_fraction() const {
    return work_total_ > 0.0 ? work_off_ / work_total_ : 0.0;
  }

 private:
  [[nodiscard]] std::size_t idx(int node, int apprank) const {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(appranks_) +
           static_cast<std::size_t>(apprank);
  }

  int nodes_;
  int appranks_;
  bool series_;
  std::vector<StepSeries> busy_;
  std::vector<StepSeries> owned_;
  std::vector<StepSeries> node_busy_;
  std::vector<Mark> marks_;
  obs::SpanRecorder* spans_ = nullptr;
  std::uint64_t tasks_total_ = 0;
  std::uint64_t tasks_off_ = 0;
  double work_total_ = 0.0;
  double work_off_ = 0.0;
};

/// One-line sparkline of binned values scaled to [0, peak]; characters
/// " .:-=+*#%@" from empty to full.
std::string ascii_sparkline(const std::vector<double>& values, double peak);

/// Multi-row ASCII timeline of a set of labelled series over [t0, t1).
std::string ascii_timeline(
    const std::vector<std::pair<std::string, const StepSeries*>>& rows,
    sim::SimTime t0, sim::SimTime t1, int bins, double peak);

/// CSV with one column per labelled series, sampled into `bins` bins.
std::string to_csv(
    const std::vector<std::pair<std::string, const StepSeries*>>& rows,
    sim::SimTime t0, sim::SimTime t1, int bins);

/// One-line marker row aligned with an ascii_timeline of the same [t0, t1)
/// window: '^' at each bin containing one mark, the count digit '2'..'9'
/// when a bin holds several, '#' for ten or more, ' ' elsewhere.
std::string ascii_marks(const std::vector<Mark>& marks, sim::SimTime t0,
                        sim::SimTime t1, int bins);

}  // namespace tlb::trace
