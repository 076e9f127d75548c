#include "trace/recorder.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "prof/prof.hpp"
#include "stream/sink.hpp"

namespace tlb::trace {

namespace {

constexpr std::size_t kPointBytes = sizeof(StepSeries::Point);

std::size_t rows(int nodes, int appranks, bool series) {
  return series ? static_cast<std::size_t>(nodes) *
                      static_cast<std::size_t>(appranks)
                : 0;
}

/// Charges a row's storage growth since `before` (its old capacity).
void charge_growth(const StepSeries& row, std::size_t before) {
  if (row.capacity() != before) {
    prof::alloc_note(prof::AllocTag::TraceSeries,
                     (row.capacity() - before) * kPointBytes);
  }
}

const StepSeries& empty_series() {
  static const StepSeries kEmpty;
  return kEmpty;
}

}  // namespace

Recorder::Recorder(int nodes, int appranks, bool series)
    : nodes_(nodes),
      appranks_(appranks),
      busy_(rows(nodes, appranks, series)),
      owned_(rows(nodes, appranks, series)) {
  assert(nodes > 0 && appranks > 0);
}

Recorder::~Recorder() {
  // Balance the trace.mark charge of each stored mark (the label pool
  // returns its own) and the trace.series charge of every row's storage.
  if (!marks_.empty()) {
    prof::free_note(prof::AllocTag::TraceMark, marks_.size() * sizeof(Mark));
  }
  std::size_t points = 0;
  for (const auto& row : busy_) points += row.capacity();
  for (const auto& row : owned_) points += row.capacity();
  if (points > 0) {
    prof::free_note(prof::AllocTag::TraceSeries, points * kPointBytes);
  }
}

void Recorder::busy_delta(sim::SimTime t, int node, int apprank, int delta) {
  if (busy_.empty()) return;
  StepSeries& row = busy_[idx(node, apprank)];
  const std::size_t before = row.capacity();
  row.add(t, delta);
  charge_growth(row, before);
}

void Recorder::set_owned(sim::SimTime t, int node, int apprank, int count) {
  if (owned_.empty()) return;
  StepSeries& row = owned_[idx(node, apprank)];
  const std::size_t before = row.capacity();
  row.set(t, count);
  charge_growth(row, before);
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
  assert(mark_count_ == 0 || t >= last_mark_t_);
  if (mark_count_ > 0 && t < last_mark_t_) t = last_mark_t_;
  last_mark_t_ = t;
  ++mark_count_;
  const std::string_view pooled = labels_.intern(label);
  if (spill_ != nullptr) {
    spill_->instant(t, pooled);
    return;
  }
  prof::alloc_note(prof::AllocTag::TraceMark, sizeof(Mark));
  marks_.push_back(Mark{t, kind, value, pooled});
}

const StepSeries& Recorder::busy(int node, int apprank) const {
  return busy_.empty() ? empty_series() : busy_[idx(node, apprank)];
}

const StepSeries& Recorder::owned(int node, int apprank) const {
  return owned_.empty() ? empty_series() : owned_[idx(node, apprank)];
}

StepSeries Recorder::node_busy(int node) const {
  assert(node >= 0 && node < nodes_);
  StepSeries total;
  if (busy_.empty()) return total;
  // Replay every row's value steps as deltas, in stable time order: the
  // total at the end of each instant is the sum of the rows there.
  std::vector<StepSeries::Point> steps;
  for (int a = 0; a < appranks_; ++a) {
    double prev = 0.0;
    for (const auto& [t, v] : busy_[idx(node, a)].points()) {
      steps.emplace_back(t, v - prev);
      prev = v;
    }
  }
  std::stable_sort(
      steps.begin(), steps.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [t, delta] : steps) total.add(t, delta);
  return total;
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
