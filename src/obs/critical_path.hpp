// Critical-path analysis over the span DAG (tlb::obs).
//
// The DAG's nodes are tasks; its edges are (a) data dependencies inside an
// iteration and (b) the implicit barrier edge between iterations (a task
// created at an iteration start is ordered after every task completed
// before that instant). The critical path is the chain found by walking
// back from the last-completing task, at each step following the
// predecessor whose completion released the current task last (ties
// broken towards the lower task id, so the walk is deterministic). The
// dependency graph picks that predecessor while the run is live and the
// span records it (TaskSpan::released_by); a task with none follows its
// barrier edge. The walk needs no task record, so every record retires at
// its barrier. A spill file carries no release ids: a collector rebuilt
// from one (tests/stream_reader.hpp) follows barrier edges only.
//
// Each chain link's duration — from the predecessor's completion (or time
// zero) to the task's own completion — is split into:
//   compute:  the final attempt's busy execution window,
//   transfer: the final attempt's offload input-transfer window (clipped
//             to the link, i.e. prefetch overlapped with the predecessor
//             is not charged),
//   wait:     everything else (queueing, scheduling, control messages,
//             abandoned attempts).
// The three sums reconstruct the critical-path length exactly:
//   compute + transfer + wait == length.
#pragma once

#include <string>
#include <vector>

#include "obs/span.hpp"

namespace tlb::obs {

struct CriticalPath {
  double length = 0.0;    ///< completion time of the chain's last task
  double compute = 0.0;   ///< busy execution on the chain
  double transfer = 0.0;  ///< offload input transfers on the chain
  double wait = 0.0;      ///< everything else (length - compute - transfer)
  std::vector<nanos::TaskId> chain;  ///< first -> last task on the path
};

/// Computes the critical path of a completed run from its spans (requires
/// RuntimeConfig::obs.spans; an empty collector yields an empty path).
CriticalPath critical_path(const SpanCollector& spans);

/// One-paragraph text rendering (length, breakdown percentages, chain
/// size).
std::string render_critical_path(const CriticalPath& cp);

}  // namespace tlb::obs
