// Task model of the OmpSs-2-like runtime.
//
// A task carries its data accesses (the single mechanism OmpSs-2 uses for
// dependencies, locality and transfers, paper §3.1), a nominal amount of
// work in core-seconds, and an offloadable flag (paper §3.2: tasks may be
// marked non-offloadable, e.g. those performing MPI calls).
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "prof/prof.hpp"
#include "sim/time.hpp"

namespace tlb::nanos {

using TaskId = std::uint64_t;
inline constexpr TaskId kNoTask = static_cast<TaskId>(-1);

enum class AccessMode { In, Out, InOut };

/// A byte range of the apprank's (isolated) virtual address space accessed
/// by a task. Appranks have isolated address spaces (paper §4), so regions
/// never alias across appranks.
struct AccessRegion {
  std::uint64_t start = 0;
  std::uint64_t size = 0;
  AccessMode mode = AccessMode::In;

  [[nodiscard]] std::uint64_t end() const { return start + size; }
  [[nodiscard]] bool reads() const { return mode != AccessMode::Out; }
  [[nodiscard]] bool writes() const { return mode != AccessMode::In; }
};

enum class TaskState {
  Created,    ///< registered, waiting on dependencies
  Ready,      ///< dependencies satisfied, waiting for a scheduling slot
  Scheduled,  ///< assigned to a worker (offloading is final from here on)
  Running,    ///< executing on a core
  Finished,
};

struct Task {
  TaskId id = kNoTask;
  int apprank = -1;
  double work = 0.0;  ///< core-seconds at nominal (speed 1.0) rate
  std::vector<AccessRegion> accesses;
  bool offloadable = true;

  // Dependency bookkeeping (managed by DependencyGraph).
  int deps_remaining = 0;
  std::vector<TaskId> successors;
  /// The predecessor whose completion released the task last (latest
  /// completion, ties to the lower id); kNoTask for a task with no edges.
  /// The critical path's dependency edge.
  TaskId released_by = kNoTask;

  // Execution record.
  TaskState state = TaskState::Created;
  int scheduled_node = -1;   ///< node chosen by the scheduler
  int executed_worker = -1;  ///< worker that (last) ran the task
  int executed_core = -1;
  /// Times the task entered execution; > 1 only after a worker crash
  /// abandoned an earlier attempt (tlb::fault crash recovery).
  int executions = 0;
  /// Times the task was detected lost on a crashed worker and re-queued.
  int reexecutions = 0;
  /// When the task became ready. While it waits on dependencies, the
  /// latest completion among its finished predecessors.
  sim::SimTime ready_at = 0.0;
  sim::SimTime start_at = 0.0;
  sim::SimTime finish_at = 0.0;
  /// Earliest time the task's input data is resident on scheduled_node
  /// (transfers are initiated at assignment, §5.5's prefetch rationale).
  sim::SimTime data_ready_at = 0.0;
};

/// Offset basis and one step of the 64-bit FNV-1a hash that folds retired
/// records into TaskPool::digest().
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
[[nodiscard]] inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

/// Owns tasks; ids are dense indices. A deque keeps references stable as
/// tasks are appended.
///
/// Record lifetime: the owner retires each block of ids once nothing will
/// read or write those records again (the runtime does it at every
/// iteration's barrier). Retiring a record checks that it finished exactly
/// once, hands it to the retire observer, folds its placement and timing
/// into digest() and frees it; get() on a freed id throws. size() keeps
/// counting every task ever created.
class TaskPool {
 public:
  using RetireObserver = std::function<void(const Task&)>;

  ~TaskPool() {
    if (!prof::enabled()) return;
    for (const auto& t : tasks_) {
      prof::free_note(prof::AllocTag::NanosTask, charged_bytes(t));
    }
  }

  TaskId create(int apprank, double work, std::vector<AccessRegion> accesses,
                bool offloadable = true) {
    Task t;
    t.id = static_cast<TaskId>(size());
    t.apprank = apprank;
    t.work = work;
    t.accesses = std::move(accesses);
    t.offloadable = offloadable;
    prof::alloc_note(prof::AllocTag::NanosTask, charged_bytes(t));
    tasks_.push_back(std::move(t));
    return tasks_.back().id;
  }

  [[nodiscard]] Task& get(TaskId id) { return tasks_.at(slot(id)); }
  [[nodiscard]] const Task& get(TaskId id) const {
    return tasks_.at(slot(id));
  }
  /// Tasks ever created (retired ones included).
  [[nodiscard]] std::size_t size() const { return freed_ + tasks_.size(); }

  /// Ids below this are retired: finished, and never written again.
  [[nodiscard]] TaskId retired() const { return retired_; }

  /// Retires ids [retired(), end) in id order and frees their records.
  void retire_below(TaskId end) {
    for (; retired_ < end; ++retired_) {
      const Task& t = get(retired_);
      if (t.state != TaskState::Finished || t.executions < 1 ||
          t.executions > 1 + t.reexecutions) {
        ++not_exactly_once_;
      }
      if (observer_) observer_(t);
      digest_ = fnv_mix(digest_, t.id);
      digest_ = fnv_mix(digest_, signed_bits(t.scheduled_node));
      digest_ = fnv_mix(digest_, signed_bits(t.executed_worker));
      digest_ = fnv_mix(digest_, signed_bits(t.executed_core));
      digest_ = fnv_mix(digest_, static_cast<std::uint64_t>(t.executions));
      digest_ = fnv_mix(digest_, std::bit_cast<std::uint64_t>(t.start_at));
      digest_ = fnv_mix(digest_, std::bit_cast<std::uint64_t>(t.finish_at));
    }
    for (; freed_ < retired_; ++freed_) {
      prof::free_note(prof::AllocTag::NanosTask, charged_bytes(tasks_.front()));
      tasks_.pop_front();
    }
  }

  /// FNV-1a over every retired record's id, scheduled node, executed
  /// worker and core, execution count, start and finish time, in id order.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Retired records that were not finished exactly once: unfinished,
  /// never executed, or executed more often than once plus once per
  /// re-execution (an extra attempt neither rescued nor suppressed).
  [[nodiscard]] std::uint64_t not_exactly_once() const {
    return not_exactly_once_;
  }

  /// Called with each record as it retires, in id order.
  void set_retire_observer(RetireObserver fn) { observer_ = std::move(fn); }

 private:
  // Attribution estimate for tlb::prof: the task record plus its access
  // and successor vectors. The accesses capacity is fixed at create()
  // (moved in, never appended); DependencyGraph charges each growth of
  // the successors capacity as it happens, so the same formula at
  // retirement or destruction balances to zero.
  [[nodiscard]] static std::size_t charged_bytes(const Task& t) {
    return sizeof(Task) + t.accesses.capacity() * sizeof(AccessRegion) +
           t.successors.capacity() * sizeof(TaskId);
  }
  [[nodiscard]] static std::uint64_t signed_bits(int v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  }
  /// Deque index of `id`; throws for a freed id.
  [[nodiscard]] std::size_t slot(TaskId id) const {
    if (id < freed_) {
      throw std::out_of_range("TaskPool: task " + std::to_string(id) +
                              " was retired");
    }
    return static_cast<std::size_t>(id - freed_);
  }

  std::deque<Task> tasks_;  ///< records from id freed_ on
  TaskId freed_ = 0;        ///< records below this id were freed
  TaskId retired_ = 0;
  std::uint64_t digest_ = kFnvOffset;
  std::uint64_t not_exactly_once_ = 0;
  RetireObserver observer_;
};

}  // namespace tlb::nanos
