#include "obs/span.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "prof/prof.hpp"

namespace tlb::obs {

namespace {

// Charged per open span plus its attempts; released when the span leaves
// the table (task_done / close). The backend charges its own store.
std::size_t open_bytes(const SpanRecorder::TaskSpan& s) {
  return sizeof(SpanRecorder::TaskSpan) +
         s.attempts.size() * sizeof(SpanRecorder::Attempt);
}

}  // namespace

// --- SpanRecorder: the lifecycle state machine --------------------------------

SpanRecorder::~SpanRecorder() {
  // Spans still open when the recorder was never closed.
  for (const auto& [id, s] : open_) {
    (void)id;
    prof::free_note(prof::AllocTag::ObsSpan, open_bytes(s));
  }
}

SpanRecorder::TaskSpan& SpanRecorder::at(nanos::TaskId id) {
  const auto [it, inserted] = open_.try_emplace(id);
  if (inserted) {
    it->second.id = id;
    prof::alloc_note(prof::AllocTag::ObsSpan, sizeof(TaskSpan));
    peak_open_ = std::max(peak_open_, open_.size());
  }
  return it->second;
}

SpanRecorder::Attempt& SpanRecorder::open_attempt(nanos::TaskId id) {
  auto it = open_.find(id);
  assert(it != open_.end() && "attempt events on a closed/unknown span");
  assert(!it->second.attempts.empty() &&
         "attempt events before task_scheduled");
  return it->second.attempts.back();
}

void SpanRecorder::task_created(nanos::TaskId id, int apprank,
                                sim::SimTime t) {
  TaskSpan& s = at(id);
  s.apprank = apprank;
  s.created_at = t;
}

void SpanRecorder::task_ready(nanos::TaskId id, nanos::TaskId released_by,
                              sim::SimTime t) {
  TaskSpan& s = at(id);
  // Only the first readiness counts as the lifecycle edge; a rescue that
  // re-queues the task keeps the original ready time (the re-queue itself
  // is recorded on the voided attempt).
  if (s.ready_at < 0.0) {
    s.ready_at = t;
    s.released_by = released_by;
  }
}

void SpanRecorder::task_scheduled(nanos::TaskId id, int worker, int node,
                                  bool offloaded, sim::SimTime t) {
  Attempt a;
  a.worker = worker;
  a.node = node;
  a.offloaded = offloaded;
  a.scheduled_at = t;
  prof::alloc_note(prof::AllocTag::ObsSpan, sizeof(Attempt));
  at(id).attempts.push_back(a);
}

void SpanRecorder::sched_decision(nanos::TaskId id, SchedVerdict verdict) {
  at(id).verdict = verdict;
}

void SpanRecorder::transfer_begin(nanos::TaskId id, std::uint64_t bytes,
                                  int /*node*/, sim::SimTime t) {
  Attempt& a = open_attempt(id);
  a.transfer_start = t;
  a.transfer_bytes = bytes;
}

void SpanRecorder::transfer_end(nanos::TaskId id, sim::SimTime t) {
  open_attempt(id).transfer_end = t;
}

void SpanRecorder::exec_begin(nanos::TaskId id, int worker, int node,
                              int core, sim::SimTime t) {
  Attempt& a = open_attempt(id);
  a.worker = worker;
  a.node = node;
  a.core = core;
  a.exec_start = t;
  // A transfer that completed before compute began stalled the pipeline
  // only up to exec_start; one still marked open was cancelled.
  if (a.transfer_start >= 0.0 && a.transfer_end >= 0.0) {
    transfer_wait_ +=
        std::max(0.0, std::min(a.transfer_end, t) - a.transfer_start);
  }
}

void SpanRecorder::exec_end(nanos::TaskId id, sim::SimTime t) {
  open_attempt(id).exec_end = t;
}

void SpanRecorder::task_done(nanos::TaskId id, sim::SimTime t) {
  at(id).done_at = t;
  auto node = open_.extract(id);
  prof::free_note(prof::AllocTag::ObsSpan, open_bytes(node.mapped()));
  store_span(std::move(node.mapped()));
}

void SpanRecorder::task_rescued(nanos::TaskId id, int /*worker*/,
                                sim::SimTime /*t*/) {
  // The voided attempt carries the rescue; exporters render it on the
  // attempt's own track.
  auto it = open_.find(id);
  if (it != open_.end() && !it->second.attempts.empty()) {
    it->second.attempts.back().rescued = true;
  }
  ++rescues_;
}

void SpanRecorder::close() {
  if (closed_) return;
  closed_ = true;
  const RunTotals totals{transfer_wait_, rescues_, open_.size()};
  for (auto& [id, s] : open_) {
    (void)id;
    prof::free_note(prof::AllocTag::ObsSpan, open_bytes(s));
    store_span(std::move(s));
  }
  open_.clear();
  store_totals(totals);
}

// --- SpanCollector: the in-memory store ---------------------------------------

SpanCollector::~SpanCollector() {
  // Balance the obs.span charges (spans at dense-slot growth, attempts
  // at store) so alive bytes return to zero at teardown.
  if (!prof::enabled()) return;
  std::size_t bytes = spans_.size() * sizeof(TaskSpan);
  for (const auto& s : spans_) bytes += s.attempts.size() * sizeof(Attempt);
  if (bytes > 0) prof::free_note(prof::AllocTag::ObsSpan, bytes);
}

void SpanCollector::store_span(TaskSpan span) {
  const auto idx = static_cast<std::size_t>(span.id);
  if (idx >= spans_.size()) {
    prof::alloc_note(prof::AllocTag::ObsSpan,
                     (idx + 1 - spans_.size()) * sizeof(TaskSpan));
    spans_.resize(idx + 1);
  }
  TaskSpan& slot = spans_[idx];
  prof::free_note(prof::AllocTag::ObsSpan,
                  slot.attempts.size() * sizeof(Attempt));
  prof::alloc_note(prof::AllocTag::ObsSpan,
                   span.attempts.size() * sizeof(Attempt));
  slot = std::move(span);
}

}  // namespace tlb::obs
