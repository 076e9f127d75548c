// Reference critical path: the successor-edge walk that obs::critical_path
// ran before each span recorded the id of the predecessor that released
// it. The oracle collects every task's successor list as the record
// retires (so the runtime keeps no record past its barrier), then derives
// the releasing predecessor after the run: among the predecessors that
// completed, the one with the latest done_at, ties to the lower id. The
// chain walk, the barrier-edge fallback and the compute / transfer / wait
// split are the production rules, written out again here so a change to
// either copy shows up as a mismatch.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/runtime.hpp"
#include "nanos/task.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"

namespace tlb::obs::oracle {

class CriticalPathOracle {
 public:
  /// Records each of `rt`'s task records as it retires. Replaces any
  /// retire observer set before.
  void observe(core::ClusterRuntime& rt) {
    rt.observe_retired_tasks([this](const nanos::Task& t) { record(t); });
  }
  /// Records one task's successor edges.
  void record(const nanos::Task& t) {
    const auto idx = static_cast<std::size_t>(t.id);
    if (idx >= successors_.size()) successors_.resize(idx + 1);
    successors_[idx] = t.successors;
  }

  /// Tasks that some recorded task names as a successor.
  [[nodiscard]] std::size_t tasks_with_predecessor() const {
    std::vector<bool> has(successors_.size(), false);
    for (const auto& succ : successors_) {
      for (const nanos::TaskId v : succ) {
        if (static_cast<std::size_t>(v) < has.size()) {
          has[static_cast<std::size_t>(v)] = true;
        }
      }
    }
    return static_cast<std::size_t>(std::count(has.begin(), has.end(), true));
  }

  /// For every task, the predecessor whose completion released it last:
  /// among the recorded predecessors that completed, the latest done_at,
  /// ties to the lower id. kNoTask for a task with no such predecessor.
  [[nodiscard]] std::vector<nanos::TaskId> releasing_predecessors(
      const SpanCollector& spans) const {
    const std::size_t n = std::min(successors_.size(), spans.spans().size());
    // Successor edges point from lower to higher ids, so ascending
    // iteration with strict improvement breaks ties towards the lower
    // predecessor id.
    std::vector<nanos::TaskId> pred(n, nanos::kNoTask);
    std::vector<double> pred_done(n, -1.0);
    for (std::size_t u = 0; u < n; ++u) {
      const double du = spans.spans()[u].done_at;
      if (du < 0.0) continue;
      for (const nanos::TaskId v : successors_[u]) {
        const auto vi = static_cast<std::size_t>(v);
        if (vi >= n) continue;
        if (du > pred_done[vi]) {
          pred_done[vi] = du;
          pred[vi] = static_cast<nanos::TaskId>(u);
        }
      }
    }
    return pred;
  }

  [[nodiscard]] CriticalPath compute(const SpanCollector& spans) const {
    CriticalPath cp;
    const std::vector<nanos::TaskId> pred = releasing_predecessors(spans);
    const std::size_t n = pred.size();
    if (n == 0) return cp;
    auto done_at = [&](std::size_t id) { return spans.spans()[id].done_at; };

    nanos::TaskId tail = nanos::kNoTask;
    double tail_done = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (done_at(i) > tail_done) {
        tail_done = done_at(i);
        tail = static_cast<nanos::TaskId>(i);
      }
    }
    if (tail == nanos::kNoTask) return cp;
    cp.length = tail_done;

    for (nanos::TaskId cur = tail; cur != nanos::kNoTask;) {
      cp.chain.push_back(cur);
      nanos::TaskId prev = pred[static_cast<std::size_t>(cur)];
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
    std::reverse(cp.chain.begin(), cp.chain.end());

    double anchor = 0.0;
    for (const nanos::TaskId id : cp.chain) {
      const SpanCollector::TaskSpan& s = spans.span(id);
      double compute = 0.0;
      double transfer = 0.0;
      if (const SpanCollector::Attempt* at = s.final_attempt()) {
        if (at->exec_start >= 0.0 && at->exec_end >= 0.0) {
          compute = std::max(0.0, at->exec_end - std::max(at->exec_start,
                                                          anchor));
        }
        if (at->transfer_start >= 0.0 && at->transfer_end >= 0.0) {
          const double t0 = std::max(at->transfer_start, anchor);
          double t1 = std::min(at->transfer_end, s.done_at);
          if (at->exec_start >= 0.0) t1 = std::min(t1, at->exec_start);
          transfer = std::max(0.0, t1 - t0);
        }
      }
      const double total = std::max(0.0, s.done_at - anchor);
      compute = std::min(compute, total);
      transfer = std::min(transfer, total - compute);
      cp.compute += compute;
      cp.transfer += transfer;
      cp.wait += total - compute - transfer;
      anchor = s.done_at;
    }
    return cp;
  }

 private:
  std::vector<std::vector<nanos::TaskId>> successors_;  ///< by task id
};

/// Expects `cp` to equal the oracle's `ref` bit for bit.
inline void expect_same_path(const CriticalPath& cp, const CriticalPath& ref) {
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(cp.chain, ref.chain);
  EXPECT_EQ(bits(cp.length), bits(ref.length));
  EXPECT_EQ(bits(cp.compute), bits(ref.compute));
  EXPECT_EQ(bits(cp.transfer), bits(ref.transfer));
  EXPECT_EQ(bits(cp.wait), bits(ref.wait));
}

}  // namespace tlb::obs::oracle
