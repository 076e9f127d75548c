#include "hier/local_master.hpp"

#include <algorithm>

namespace tlb::hier {

std::uint64_t LocalMaster::refresh(const sched::RuntimeView& view,
                                   sim::SimTime now) {
  const core::Topology& topo = view.topology();
  const int per_core = view.inflight_per_core();
  std::uint64_t touched = 0;

  summary_.workers.clear();
  summary_.total_slack = 0;
  int owned_sum = 0;
  int inflight_sum = 0;
  for (const core::WorkerId w : topo.workers_on_node(summary_.node)) {
    WorkerSlack ws;
    ws.worker = w;
    ws.owned = view.owned_cores(w);
    ws.inflight = view.inflight(w);
    ws.slack = per_core * ws.owned - ws.inflight;
    // Modelled DLB probe cost (not host time): one per owned core plus
    // one for the in-flight read. This is the cost the summary amortizes:
    // flat policies pay it per decision, we pay it per refresh.
    touched += 1 + static_cast<std::uint64_t>(ws.owned > 0 ? ws.owned : 1);
    if (view.usable(w)) {
      summary_.total_slack += std::max(0, ws.slack);
    }
    owned_sum += ws.owned;
    inflight_sum += ws.inflight;
    summary_.workers.push_back(ws);
  }
  summary_.load_ratio =
      static_cast<double>(inflight_sum) / std::max(1, owned_sum);
  summary_.refreshed_at = now;
  ++refreshes_;
  return touched;
}

void LocalMaster::note_placed(core::WorkerId w) {
  for (WorkerSlack& ws : summary_.workers) {
    if (ws.worker != w) continue;
    ws.inflight += 1;
    ws.slack -= 1;
    if (ws.slack >= 0) {
      summary_.total_slack = std::max(0, summary_.total_slack - 1);
    }
    return;
  }
}

}  // namespace tlb::hier
