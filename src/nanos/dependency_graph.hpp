// Region-based task dependency graph (one instance per apprank).
//
// Tasks are registered in program order (OmpSs-2@Cluster inherits task
// ordering from the sequential code, paper §3.2). For every byte range a
// task accesses, the graph derives:
//   RAW: readers depend on the last writer of the range;
//   WAW: writers depend on the last writer;
//   WAR: writers depend on every reader since that writer.
// The implementation keeps a RegionIndex over the apprank's address space,
// split at access boundaries, with each run's last writer and readers.
#pragma once

#include <cstdint>
#include <vector>

#include "nanos/region_index.hpp"
#include "nanos/task.hpp"

namespace tlb::nanos {

class DependencyGraph {
 public:
  explicit DependencyGraph(TaskPool& pool) : pool_(pool) {}

  /// Registers the next task in program order; wires predecessor /
  /// successor edges and sets task.deps_remaining. Returns true when the
  /// task is immediately ready (no unfinished predecessors). Predecessors
  /// below the pool's retired watermark count as finished.
  bool register_task(TaskId id);

  /// Marks a task finished at `now` and returns the tasks that became
  /// ready. Every successor's ready_at and released_by take this
  /// completion if it is the latest so far (ties to the lower id), so a
  /// released task names the predecessor the critical path follows.
  std::vector<TaskId> on_task_finished(TaskId id, sim::SimTime now);

  /// Number of registered-but-unfinished tasks (taskwait support).
  [[nodiscard]] std::size_t live_tasks() const { return live_; }

  /// Total dependency edges created (diagnostic).
  [[nodiscard]] std::uint64_t edge_count() const { return edges_; }

 private:
  struct Access {
    TaskId last_writer = kNoTask;
    std::vector<TaskId> readers;  ///< readers since last_writer
  };

  TaskPool& pool_;
  RegionIndex<Access> runs_;
  std::vector<TaskId> preds_;  ///< register_task scratch, reused
  std::size_t live_ = 0;
  std::uint64_t edges_ = 0;
};

}  // namespace tlb::nanos
