// Reference implementations for the nanos region index: the std::map
// interval maps that nanos::DataLocations and nanos::DependencyGraph used
// before they shared one flat run vector. Each keeps a map from segment
// start to segment, merges a relocated range into one segment and splits
// segments at every access boundary. Tests drive them and the production
// classes with the same operations and compare every answer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nanos/task.hpp"

namespace tlb::nanos::oracle {

class MapDataLocations {
 public:
  explicit MapDataLocations(int home_node) : home_(home_node) {}

  [[nodiscard]] std::uint64_t missing_input_bytes(
      const std::vector<AccessRegion>& accesses, int node) const {
    std::uint64_t bytes = 0;
    for (const AccessRegion& a : accesses) {
      if (!a.reads() || a.size == 0) continue;
      bytes += scan_const(a.start, a.end(), node, /*count_not_on=*/true);
    }
    return bytes;
  }

  [[nodiscard]] std::uint64_t resident_input_bytes(
      const std::vector<AccessRegion>& accesses, int node) const {
    std::uint64_t bytes = 0;
    for (const AccessRegion& a : accesses) {
      if (!a.reads() || a.size == 0) continue;
      bytes += scan_const(a.start, a.end(), node, /*count_not_on=*/false);
    }
    return bytes;
  }

  void task_executed(const std::vector<AccessRegion>& accesses, int node) {
    for (const AccessRegion& a : accesses) {
      if (a.size != 0 && a.writes()) set_range(a.start, a.end(), node);
    }
  }

  std::uint64_t pull(const std::vector<AccessRegion>& accesses, int node) {
    std::uint64_t bytes = 0;
    for (const AccessRegion& a : accesses) {
      if (a.size == 0) continue;
      bytes += scan_const(a.start, a.end(), node, /*count_not_on=*/true);
      set_range(a.start, a.end(), node);
    }
    return bytes;
  }

  [[nodiscard]] std::vector<std::pair<int, std::uint64_t>> missing_by_source(
      const std::vector<AccessRegion>& accesses, int node) const {
    std::map<int, std::uint64_t> by_source;
    for (const AccessRegion& a : accesses) {
      if (!a.reads() || a.size == 0) continue;
      scan_sources(a.start, a.end(), node, by_source);
    }
    return {by_source.begin(), by_source.end()};
  }

  std::vector<std::pair<int, std::uint64_t>> pull_by_source(
      const std::vector<AccessRegion>& accesses, int node) {
    std::map<int, std::uint64_t> by_source;
    for (const AccessRegion& a : accesses) {
      if (a.size == 0) continue;
      scan_sources(a.start, a.end(), node, by_source);
      set_range(a.start, a.end(), node);
    }
    return {by_source.begin(), by_source.end()};
  }

  [[nodiscard]] int location_of(std::uint64_t addr) const {
    auto it = segments_.upper_bound(addr);
    if (it != segments_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > addr) return prev->second.node;
    }
    return home_;
  }

 private:
  struct Segment {
    std::uint64_t end = 0;
    int node = -1;
  };

  // Visits [start, end) span by span as (span_end, holder), with gaps
  // between segments reported as home-resident.
  template <typename Visit>
  void walk(std::uint64_t start, std::uint64_t end, Visit visit) const {
    std::uint64_t cursor = start;
    auto it = segments_.upper_bound(start);
    if (it != segments_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > start) it = prev;
    }
    while (cursor < end) {
      std::uint64_t span_end = end;
      int loc = home_;
      if (it != segments_.end() && it->first <= cursor) {
        span_end = std::min(it->second.end, end);
        loc = it->second.node;
        ++it;
      } else if (it != segments_.end() && it->first < end) {
        span_end = it->first;
      }
      visit(span_end - cursor, loc);
      cursor = span_end;
    }
  }

  [[nodiscard]] std::uint64_t scan_const(std::uint64_t start,
                                         std::uint64_t end, int node,
                                         bool count_not_on) const {
    std::uint64_t counted = 0;
    walk(start, end, [&](std::uint64_t bytes, int loc) {
      if ((loc != node) == count_not_on) counted += bytes;
    });
    return counted;
  }

  void scan_sources(std::uint64_t start, std::uint64_t end, int node,
                    std::map<int, std::uint64_t>& by_source) const {
    walk(start, end, [&](std::uint64_t bytes, int loc) {
      if (loc != node) by_source[loc] += bytes;
    });
  }

  void set_range(std::uint64_t start, std::uint64_t end, int node) {
    if (start >= end) return;
    auto it = segments_.upper_bound(start);
    if (it != segments_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > start) {
        if (prev->second.end > end) {
          segments_.emplace(end, Segment{prev->second.end, prev->second.node});
        }
        prev->second.end = start;
        if (prev->second.end == prev->first) segments_.erase(prev);
      }
    }
    it = segments_.lower_bound(start);
    while (it != segments_.end() && it->first < end) {
      if (it->second.end <= end) {
        it = segments_.erase(it);
      } else {
        Segment tail = it->second;
        segments_.erase(it);
        segments_.emplace(end, tail);
        break;
      }
    }
    segments_.emplace(start, Segment{end, node});
  }

  int home_;
  std::map<std::uint64_t, Segment> segments_;  ///< start -> segment
};

/// Dependency derivation over a std::map interval map, with predecessors
/// gathered in an unordered set.
class MapDependencyGraph {
 public:
  explicit MapDependencyGraph(TaskPool& pool) : pool_(pool) {}

  bool register_task(TaskId id) {
    Task& task = pool_.get(id);
    ++live_;
    std::unordered_set<TaskId> preds;
    for (const AccessRegion& acc : task.accesses) {
      if (acc.size == 0) continue;
      const std::uint64_t lo = acc.start;
      const std::uint64_t hi = acc.end();
      auto it = segments_.upper_bound(lo);
      if (it != segments_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > lo) it = prev;
      }
      std::uint64_t cursor = lo;
      while (cursor < hi) {
        if (it == segments_.end() || it->first > cursor) {
          // Gap up to the next segment (or hi): untouched, no deps.
          Segment fresh;
          fresh.end = it == segments_.end() ? hi : std::min(it->first, hi);
          if (acc.writes()) {
            fresh.last_writer = id;
          } else {
            fresh.readers.push_back(id);
          }
          const std::uint64_t gap_start = cursor;
          cursor = fresh.end;
          segments_.emplace(gap_start, std::move(fresh));
          continue;
        }
        if (it->first < cursor) {
          Segment tail = it->second;
          it->second.end = cursor;
          it = segments_.emplace(cursor, std::move(tail)).first;
        }
        if (it->second.end > hi) {
          Segment tail = it->second;
          it->second.end = hi;
          segments_.emplace(hi, std::move(tail));
        }
        Segment& seg = it->second;
        if (seg.last_writer != kNoTask) preds.insert(seg.last_writer);
        if (acc.writes()) {
          for (TaskId r : seg.readers) preds.insert(r);
          seg.last_writer = id;
          seg.readers.clear();
        } else {
          seg.readers.push_back(id);
        }
        cursor = seg.end;
        ++it;
      }
    }
    preds.erase(id);
    int remaining = 0;
    for (TaskId p : preds) {
      Task& pred = pool_.get(p);
      if (pred.state != TaskState::Finished) {
        pred.successors.push_back(id);
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

  std::vector<TaskId> on_task_finished(TaskId id) {
    Task& task = pool_.get(id);
    task.state = TaskState::Finished;
    --live_;
    std::vector<TaskId> now_ready;
    for (TaskId s : task.successors) {
      Task& succ = pool_.get(s);
      if (--succ.deps_remaining == 0) {
        succ.state = TaskState::Ready;
        now_ready.push_back(s);
      }
    }
    return now_ready;
  }

  [[nodiscard]] std::size_t live_tasks() const { return live_; }
  [[nodiscard]] std::uint64_t edge_count() const { return edges_; }

 private:
  struct Segment {
    std::uint64_t end = 0;
    TaskId last_writer = kNoTask;
    std::vector<TaskId> readers;
  };

  TaskPool& pool_;
  std::map<std::uint64_t, Segment> segments_;  ///< start -> segment
  std::size_t live_ = 0;
  std::uint64_t edges_ = 0;
};

}  // namespace tlb::nanos::oracle
