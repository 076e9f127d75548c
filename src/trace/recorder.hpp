// Execution trace recorder.
//
// Stores two step series kinds per (node, apprank):
//   - busy cores: number of cores executing that apprank's tasks on that
//     node (the left-hand traces of Fig 9);
//   - owned cores: DROM ownership (the right-hand traces of Fig 9);
// plus offload statistics and the one list of timeline marks. Per-node
// totals (node_busy) are not stored: they are derived on demand from the
// node's busy rows. Renderers below turn the series into ASCII timelines
// for the paper's trace figures. The series are optional
// (RuntimeConfig::record_traces); offload statistics are always kept. The
// mark list is the run's one in-memory store of timeline marks: each mark
// is kept here, or, once a stream sink takes them (spill_marks_to), written
// to the spill only, and the recorder keeps just the count and the
// interned labels. Row capacity is charged to the trace.series alloc tag.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/label_pool.hpp"
#include "trace/step_series.hpp"

namespace tlb::stream {
class StreamSink;
}

namespace tlb::trace {

/// Classification of a timeline mark. Generic and FaultInjected marks
/// render only as Chrome instants; the other kinds additionally map to
/// dedicated Paraver event types (see trace/paraver.hpp).
enum class MarkKind : std::uint8_t {
  Generic,
  SchedSteer,     ///< scheduler redirected an offload (value = worker)
  SchedSuppress,  ///< scheduler suppressed an offload (value = worker)
  NetCongestion,  ///< fabric link became congested (value = link id)
  NetCleared,     ///< fabric link congestion cleared (value = link id)
  FaultInjected,  ///< a perturbation began (value = fault target)
};

/// One discrete runtime event on the timeline. The label views the
/// recording Recorder's label pool and is valid for that recorder's
/// lifetime.
struct Mark {
  sim::SimTime t = 0.0;
  MarkKind kind = MarkKind::Generic;
  std::int64_t value = 0;
  std::string_view label;

  bool operator==(const Mark&) const = default;
};

class Recorder {
 public:
  /// With `series` false, busy_delta and set_owned record nothing, no row
  /// is allocated and every busy / owned / node-busy series is empty.
  Recorder(int nodes, int appranks, bool series = true);
  ~Recorder();

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int appranks() const { return appranks_; }

  void busy_delta(sim::SimTime t, int node, int apprank, int delta);
  void set_owned(sim::SimTime t, int node, int apprank, int count);
  void task_executed(int node, int home_node, double work);

  /// Records one discrete event (fault injection or recovery, detection
  /// verdict, scheduler verdict, congestion change, policy switch). This is
  /// the only timeline channel: Paraver, the Chrome trace, the spill file
  /// and the recovery analysis all read these marks. Times must
  /// be non-decreasing: a violation asserts in debug builds and is clamped
  /// to the previous mark's time in release builds, so the list stays
  /// sorted either way. The label is interned: each distinct label is
  /// stored once. Once marks are spilled, the mark is written to the
  /// spill as an instant, counted, and not kept.
  void mark(sim::SimTime t, MarkKind kind, std::int64_t value,
            std::string_view label);
  /// The marks kept in memory: every mark, or none once they are spilled.
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }
  /// Marks recorded, kept or spilled.
  [[nodiscard]] std::uint64_t mark_count() const { return mark_count_; }
  /// Distinct mark labels stored (one pool entry each).
  [[nodiscard]] std::size_t distinct_labels() const { return labels_.size(); }

  /// Writes every later mark to `sink` instead of keeping it: the spill
  /// becomes the run's mark record, and exporters that need the marks
  /// refuse the recorder. Null keeps marks again. The sink must outlive
  /// the recorder's use of it.
  void spill_marks_to(stream::StreamSink* sink) { spill_ = sink; }
  /// True when later marks go to a spill only (spill_marks_to).
  [[nodiscard]] bool marks_spilled() const { return spill_ != nullptr; }

  [[nodiscard]] const StepSeries& busy(int node, int apprank) const;
  [[nodiscard]] const StepSeries& owned(int node, int apprank) const;
  /// Total busy cores on a node (all appranks), built from the node's busy
  /// rows on each call: its value at any time is the sum of theirs.
  [[nodiscard]] StepSeries node_busy(int node) const;

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
  std::vector<StepSeries> busy_;   ///< empty when series are off
  std::vector<StepSeries> owned_;  ///< empty when series are off
  std::vector<Mark> marks_;
  std::uint64_t mark_count_ = 0;
  sim::SimTime last_mark_t_ = 0.0;  ///< clamp floor, valid once counted
  LabelPool labels_;  ///< marks view it
  stream::StreamSink* spill_ = nullptr;
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

}  // namespace tlb::trace
