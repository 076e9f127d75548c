#include "trace/recorder.hpp"

#include <cassert>
#include <sstream>

#include "obs/span.hpp"

namespace tlb::trace {

Recorder::Recorder(int nodes, int appranks, bool series)
    : nodes_(nodes),
      appranks_(appranks),
      series_(series),
      busy_(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(appranks)),
      owned_(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(appranks)),
      node_busy_(static_cast<std::size_t>(nodes)) {
  assert(nodes > 0 && appranks > 0);
}

Recorder::~Recorder() {
  // Balance the trace.mark charge of each stored mark (the label pool
  // returns its own).
  if (!marks_.empty()) {
    prof::free_note(prof::AllocTag::TraceMark, marks_.size() * sizeof(Mark));
  }
}

void Recorder::busy_delta(sim::SimTime t, int node, int apprank, int delta) {
  if (!series_) return;
  busy_[idx(node, apprank)].add(t, delta);
  node_busy_[static_cast<std::size_t>(node)].add(t, delta);
}

void Recorder::set_owned(sim::SimTime t, int node, int apprank, int count) {
  if (!series_) return;
  owned_[idx(node, apprank)].set(t, count);
}

void Recorder::task_executed(int node, int home_node, double work) {
  ++tasks_total_;
  work_total_ += work;
  if (node != home_node) {
    ++tasks_off_;
    work_off_ += work;
  }
}

void Recorder::mark(sim::SimTime t, MarkKind kind, std::int64_t value,
                    std::string_view label) {
  assert(marks_.empty() || t >= marks_.back().t);
  if (!marks_.empty() && t < marks_.back().t) t = marks_.back().t;
  prof::alloc_note(prof::AllocTag::TraceMark, sizeof(Mark));
  marks_.push_back(Mark{t, kind, value, labels_.intern(label)});
  if (spans_ != nullptr) spans_->instant(t, marks_.back().label);
}

const StepSeries& Recorder::busy(int node, int apprank) const {
  return busy_[idx(node, apprank)];
}

const StepSeries& Recorder::owned(int node, int apprank) const {
  return owned_[idx(node, apprank)];
}

const StepSeries& Recorder::node_busy(int node) const {
  return node_busy_.at(static_cast<std::size_t>(node));
}

std::string ascii_sparkline(const std::vector<double>& values, double peak) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = static_cast<int>(sizeof(kRamp) - 2);
  std::string out;
  out.reserve(values.size());
  for (double v : values) {
    double frac = peak > 0.0 ? v / peak : 0.0;
    if (frac < 0.0) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
    out.push_back(kRamp[static_cast<int>(frac * kLevels + 0.5)]);
  }
  return out;
}

std::string ascii_timeline(
    const std::vector<std::pair<std::string, const StepSeries*>>& rows,
    sim::SimTime t0, sim::SimTime t1, int bins, double peak) {
  std::size_t label_width = 0;
  for (const auto& [label, series] : rows) {
    label_width = std::max(label_width, label.size());
  }
  std::ostringstream out;
  for (const auto& [label, series] : rows) {
    out << label << std::string(label_width - label.size(), ' ') << " |"
        << ascii_sparkline(series->sample(t0, t1, bins), peak) << "|\n";
  }
  return out.str();
}

}  // namespace tlb::trace
