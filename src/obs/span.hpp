// Per-task lifecycle spans (tlb::obs).
//
// Every task gets a lifecycle record: created -> ready -> scheduled
// (possibly steered or suppressed by the policy) -> offload-transfer
// start/end -> execute start/end -> done, plus retries/rescues after
// crashes or revoked leases. The runtime emits these through the SpanSink
// interface; the default sink is null (span collection is off unless
// RuntimeConfig::obs.spans or obs.stream enables it). SpanRecorder is the
// one lifecycle state machine; SpanCollector (here) and stream::StreamSink
// are its two stores. Timeline marks are not spans: trace::Recorder keeps
// them, or spills them to the StreamSink when the run streams.
//
// Determinism contract: sinks only *record*. They must not schedule
// simulator events, read RNGs, or otherwise feed back into the run; a run
// with span collection enabled is bit-identical (same schedule
// fingerprint, same event count) to one without.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "nanos/task.hpp"
#include "sim/time.hpp"

namespace tlb::obs {

/// Scheduler verdicts relative to the locality baseline (tlb::sched).
enum class SchedVerdict { Baseline, Steered, Suppressed };

/// Receiver of task lifecycle events. All hooks are no-ops by default so
/// emitters pay one virtual call per event and nothing else.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  virtual void task_created(nanos::TaskId /*id*/, int /*apprank*/,
                            sim::SimTime /*t*/) {}
  /// `released_by` is the predecessor whose completion released the task
  /// (nanos::Task::released_by), or kNoTask.
  virtual void task_ready(nanos::TaskId /*id*/, nanos::TaskId /*released_by*/,
                          sim::SimTime /*t*/) {}
  /// `offloaded` = scheduled off the task's home node.
  virtual void task_scheduled(nanos::TaskId /*id*/, int /*worker*/,
                              int /*node*/, bool /*offloaded*/,
                              sim::SimTime /*t*/) {}
  /// The scheduler's verdict on the task's placement (the timeline mark
  /// of a steer or suppression is made by the runtime, not here).
  virtual void sched_decision(nanos::TaskId /*id*/,
                              SchedVerdict /*verdict*/) {}
  /// Eager input transfer towards the execution node began / delivered its
  /// last byte. `bytes` is the total payload across all source nodes.
  virtual void transfer_begin(nanos::TaskId /*id*/, std::uint64_t /*bytes*/,
                              int /*node*/, sim::SimTime /*t*/) {}
  virtual void transfer_end(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// Compute began on a core (busy, not merely occupied) / released it.
  virtual void exec_begin(nanos::TaskId /*id*/, int /*worker*/, int /*node*/,
                          int /*core*/, sim::SimTime /*t*/) {}
  virtual void exec_end(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// Completion observed at the home runtime (dependencies released).
  virtual void task_done(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// The assignment to `worker` was voided (crash / lease revocation) and
  /// the task went back to the ready path.
  virtual void task_rescued(nanos::TaskId /*id*/, int /*worker*/,
                            sim::SimTime /*t*/) {}
};

/// The task lifecycle state machine behind every span backend. It keeps
/// the *open* spans (tasks created but not yet done) keyed by task id and
/// owns the lifecycle rules: only the first readiness is the ready edge,
/// the transfer-wait integral is folded in at exec_begin, rescues mark the
/// attempt they voided and are counted, and the scheduler verdict is kept
/// on the span.
///
/// Backends differ only in what they store: a span leaves the table
/// through store_span() the moment its task_done arrives, and close()
/// hands over the spans still open (id order) followed by the run totals.
/// A recorder is not copyable: a copy would store every later span twice.
class SpanRecorder : public SpanSink {
 public:
  /// One execution attempt of a task. Times are -1 until observed.
  struct Attempt {
    int worker = -1;
    int node = -1;
    int core = -1;
    sim::SimTime scheduled_at = -1.0;
    sim::SimTime transfer_start = -1.0;
    sim::SimTime transfer_end = -1.0;
    sim::SimTime exec_start = -1.0;
    sim::SimTime exec_end = -1.0;
    std::uint64_t transfer_bytes = 0;
    bool offloaded = false;  ///< scheduled off the task's home node
    bool rescued = false;    ///< voided by a crash / revoked lease
  };
  struct TaskSpan {
    nanos::TaskId id = nanos::kNoTask;
    /// The critical path's dependency edge: the predecessor whose
    /// completion released the task (kNoTask for a task with no edges).
    /// The spill format does not carry it.
    nanos::TaskId released_by = nanos::kNoTask;
    sim::SimTime created_at = -1.0;
    sim::SimTime ready_at = -1.0;
    sim::SimTime done_at = -1.0;
    int apprank = -1;
    SchedVerdict verdict = SchedVerdict::Baseline;
    std::vector<Attempt> attempts;

    /// The attempt that ran to completion (the last one), or null.
    [[nodiscard]] const Attempt* final_attempt() const {
      return attempts.empty() ? nullptr : &attempts.back();
    }
  };
  /// Run aggregates, handed to the backend once by close().
  struct RunTotals {
    double transfer_wait_core_s = 0.0;
    std::uint64_t rescues = 0;
    std::uint64_t open_spans = 0;  ///< spans still open at close (no done_at)
  };

  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;
  ~SpanRecorder() override;

  void task_created(nanos::TaskId id, int apprank, sim::SimTime t) final;
  void task_ready(nanos::TaskId id, nanos::TaskId released_by,
                  sim::SimTime t) final;
  void task_scheduled(nanos::TaskId id, int worker, int node, bool offloaded,
                      sim::SimTime t) final;
  void sched_decision(nanos::TaskId id, SchedVerdict verdict) final;
  void transfer_begin(nanos::TaskId id, std::uint64_t bytes, int node,
                      sim::SimTime t) final;
  void transfer_end(nanos::TaskId id, sim::SimTime t) final;
  void exec_begin(nanos::TaskId id, int worker, int node, int core,
                  sim::SimTime t) final;
  void exec_end(nanos::TaskId id, sim::SimTime t) final;
  void task_done(nanos::TaskId id, sim::SimTime t) final;
  void task_rescued(nanos::TaskId id, int worker, sim::SimTime t) final;

  /// Stores every still-open span (id order, done_at -1), then the run
  /// totals. Idempotent. A backend whose store outlives the run (the
  /// spill file) calls it from its destructor if the runtime did not.
  void close();

  /// Core-seconds spent occupied-but-not-busy waiting on input transfers
  /// (transfer_end - exec claim, approximated by transfer windows).
  [[nodiscard]] double transfer_wait_core_seconds() const {
    return transfer_wait_;
  }
  [[nodiscard]] std::uint64_t rescues() const { return rescues_; }
  /// Spans currently open (created, not yet done) — the resident table.
  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }
  /// High-water mark of the open-span table.
  [[nodiscard]] std::size_t peak_open_spans() const { return peak_open_; }

 protected:
  virtual void store_span(TaskSpan span) = 0;
  virtual void store_totals(const RunTotals& totals) = 0;

  double transfer_wait_ = 0.0;
  std::uint64_t rescues_ = 0;

 private:
  TaskSpan& at(nanos::TaskId id);
  [[nodiscard]] Attempt& open_attempt(nanos::TaskId id);

  /// Open spans, keyed by task id. An ordered map so close() walks the
  /// never-finished tasks in id order (deterministic output for
  /// deterministic runs).
  std::map<nanos::TaskId, TaskSpan> open_;
  std::size_t peak_open_ = 0;
  bool closed_ = false;
};

// apprank and verdict share one 8 B slot, so the release id adds no size.
static_assert(sizeof(SpanRecorder::TaskSpan) <= 72);

/// In-memory backend: closed spans land at their dense task-id slot. The
/// exporters (trace::chrome_trace, flame, critical_path) read this view;
/// the spill-format oracle in tests/stream_reader.hpp builds the same view
/// from a spill file by calling the two store entry points with the
/// file's records (with no release ids, which the spill does not carry).
class SpanCollector final : public SpanRecorder {
 public:
  ~SpanCollector() override;

  /// Spans dense by task id. Complete once the runtime has closed the
  /// recorder (finalize()); until then only finished spans are here.
  [[nodiscard]] const std::vector<TaskSpan>& spans() const { return spans_; }
  [[nodiscard]] const TaskSpan& span(nanos::TaskId id) const {
    return spans_.at(static_cast<std::size_t>(id));
  }

  void store_span(TaskSpan span) override;
  /// Live runs hand back the totals the hooks accumulated; a spill
  /// reader hands over the file's footer.
  void store_totals(const RunTotals& totals) override {
    transfer_wait_ = totals.transfer_wait_core_s;
    rescues_ = totals.rescues;
  }

 private:
  std::vector<TaskSpan> spans_;
};

}  // namespace tlb::obs
