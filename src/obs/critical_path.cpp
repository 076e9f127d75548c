#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tlb::obs {

CriticalPath critical_path(const SpanCollector& spans) {
  CriticalPath cp;
  const std::size_t n = spans.spans().size();
  if (n == 0) return cp;
  // Completion time of a task; -1 when never completed.
  auto done_at = [&](std::size_t id) { return spans.spans()[id].done_at; };

  // Chain tail: the globally last-completing task (ties -> lower id).
  nanos::TaskId tail = nanos::kNoTask;
  double tail_done = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = done_at(i);
    if (d > tail_done) {
      tail_done = d;
      tail = static_cast<nanos::TaskId>(i);
    }
  }
  if (tail == nanos::kNoTask) return cp;
  cp.length = tail_done;

  // Walk back; when a task has no dependency predecessor, follow the
  // barrier edge to the latest task completed before this one was created.
  std::vector<nanos::TaskId> chain;
  nanos::TaskId cur = tail;
  while (cur != nanos::kNoTask) {
    chain.push_back(cur);
    nanos::TaskId prev = spans.span(cur).released_by;
    if (prev == nanos::kNoTask) {
      const double created = spans.span(cur).created_at;
      double best = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = done_at(i);
        if (d >= 0.0 && d <= created && d > best) {
          best = d;
          prev = static_cast<nanos::TaskId>(i);
        }
      }
    }
    cur = prev;
  }
  std::reverse(chain.begin(), chain.end());
  cp.chain = chain;

  // Split each link [anchor, done] into compute / transfer / wait.
  double anchor = 0.0;
  for (const nanos::TaskId id : chain) {
    const SpanCollector::TaskSpan& s = spans.span(id);
    const double done = s.done_at;
    double compute = 0.0;
    double transfer = 0.0;
    if (const SpanCollector::Attempt* at = s.final_attempt()) {
      if (at->exec_start >= 0.0 && at->exec_end >= 0.0) {
        compute = std::max(0.0, at->exec_end - std::max(at->exec_start,
                                                        anchor));
      }
      if (at->transfer_start >= 0.0 && at->transfer_end >= 0.0) {
        // Clip prefetch overlapped with the predecessor, and any overlap
        // with the compute window (transfers complete before compute
        // begins, so this is defensive).
        const double t0 = std::max(at->transfer_start, anchor);
        double t1 = std::min(at->transfer_end, done);
        if (at->exec_start >= 0.0) t1 = std::min(t1, at->exec_start);
        transfer = std::max(0.0, t1 - t0);
      }
    }
    const double total = std::max(0.0, done - anchor);
    compute = std::min(compute, total);
    transfer = std::min(transfer, total - compute);
    cp.compute += compute;
    cp.transfer += transfer;
    cp.wait += total - compute - transfer;
    anchor = done;
  }
  return cp;
}

std::string render_critical_path(const CriticalPath& cp) {
  std::ostringstream out;
  char buf[200];
  const double len = cp.length > 0.0 ? cp.length : 1.0;
  std::snprintf(buf, sizeof(buf),
                "Critical path: %.3f s over %zu tasks — compute %.3f s "
                "(%.1f%%), transfer %.3f s (%.1f%%), wait %.3f s (%.1f%%)\n",
                cp.length, cp.chain.size(), cp.compute,
                100.0 * cp.compute / len, cp.transfer,
                100.0 * cp.transfer / len, cp.wait, 100.0 * cp.wait / len);
  out << buf;
  return out.str();
}

}  // namespace tlb::obs
