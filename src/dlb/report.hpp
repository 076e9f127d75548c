// End-of-run scheduler report, in the fixed-width style of DLB's TALP
// summary (paper §3.3; the TALP/POP efficiency report itself is
// obs::render_pop).
#pragma once

#include <string>

#include "sched/stats.hpp"

namespace tlb::dlb {

/// Renders the scheduling-policy counters (tlb::sched, RunResult::sched)
/// as an end-of-run report: victim selections, offload opportunities, and
/// how many the policy steered or suppressed relative to the locality
/// baseline. (SchedStats is header-only, so this adds no
/// tlb_sched link dependency.)
std::string sched_report(const std::string& policy,
                         const sched::SchedStats& stats);

}  // namespace tlb::dlb
