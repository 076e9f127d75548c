#include "nanos/dependency_graph.hpp"

#include <algorithm>
#include <cassert>

#include "prof/prof.hpp"

namespace tlb::nanos {

bool DependencyGraph::register_task(TaskId id) {
  Task& task = pool_.get(id);
  assert(task.state == TaskState::Created);
  ++live_;

  preds_.clear();
  for (const AccessRegion& acc : task.accesses) {
    if (acc.size == 0) continue;
    // Untouched bytes become runs with no writer and no readers: they add
    // no predecessors and then record this task like any other run.
    const auto span = runs_.cover(acc.start, acc.end(), Access{});
    for (std::size_t i = span.first; i < span.last; ++i) {
      Access& run = runs_[i].payload;
      // RAW and WAW: every access orders after the last writer.
      if (run.last_writer != kNoTask) preds_.push_back(run.last_writer);
      if (acc.writes()) {
        // WAR: a writer also orders after the readers since then.
        preds_.insert(preds_.end(), run.readers.begin(), run.readers.end());
        run.last_writer = id;
        run.readers.clear();
      } else {
        run.readers.push_back(id);
      }
    }
  }

  // Each predecessor once; drop self-deps from multiple regions of one task.
  std::sort(preds_.begin(), preds_.end());
  preds_.erase(std::unique(preds_.begin(), preds_.end()), preds_.end());
  // A retired predecessor finished before its block retired: no record
  // to read, and no edge.
  const TaskId retired = pool_.retired();
  int remaining = 0;
  for (TaskId p : preds_) {
    if (p == id || p < retired) continue;
    Task& pred = pool_.get(p);
    if (pred.state != TaskState::Finished) {
      const std::size_t capacity = pred.successors.capacity();
      pred.successors.push_back(id);
      if (pred.successors.capacity() != capacity) {
        prof::alloc_note(
            prof::AllocTag::NanosTask,
            (pred.successors.capacity() - capacity) * sizeof(TaskId));
      }
      ++remaining;
      ++edges_;
    }
  }
  task.deps_remaining = remaining;
  if (remaining == 0) {
    task.state = TaskState::Ready;
    return true;
  }
  return false;
}

std::vector<TaskId> DependencyGraph::on_task_finished(TaskId id,
                                                      sim::SimTime now) {
  Task& task = pool_.get(id);
  assert(task.state != TaskState::Finished && "double finish");
  task.state = TaskState::Finished;
  assert(live_ > 0);
  --live_;

  std::vector<TaskId> now_ready;
  for (TaskId s : task.successors) {
    Task& succ = pool_.get(s);
    assert(succ.deps_remaining > 0);
    if (now > succ.ready_at ||
        (now == succ.ready_at && id < succ.released_by)) {
      succ.ready_at = now;
      succ.released_by = id;
    }
    if (--succ.deps_remaining == 0) {
      assert(succ.state == TaskState::Created);
      succ.state = TaskState::Ready;
      now_ready.push_back(s);
    }
  }
  return now_ready;
}

}  // namespace tlb::nanos
