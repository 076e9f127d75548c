#include "obs/pop.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tlb::obs {

PopReport pop_report(const dlb::TalpModule& talp,
                     const std::vector<int>& worker_apprank,
                     int apprank_count, double total_cores, double elapsed,
                     double transfer_wait_core_seconds) {
  PopReport r;
  r.elapsed = elapsed;
  r.total_cores = total_cores;
  if (apprank_count <= 0 || total_cores <= 0.0 || elapsed <= 0.0) return r;

  // Summed in worker order, which fixes the sums' last bits.
  std::vector<double> busy(static_cast<std::size_t>(apprank_count), 0.0);
  double total_busy = 0.0;
  for (std::size_t w = 0; w < worker_apprank.size(); ++w) {
    const int apprank = worker_apprank[w];
    if (apprank < 0 || apprank >= apprank_count) continue;
    const double worker_busy = talp.busy_core_seconds(static_cast<int>(w));
    busy[static_cast<std::size_t>(apprank)] += worker_busy;
    total_busy += worker_busy;
  }

  const double nominal = total_cores / apprank_count;
  double max_busy = 0.0;
  for (int a = 0; a < apprank_count; ++a) {
    PopApprankRow row;
    row.apprank = a;
    row.busy_core_seconds = busy[static_cast<std::size_t>(a)];
    row.nominal_cores = nominal;
    row.parallel_efficiency = row.busy_core_seconds / (nominal * elapsed);
    max_busy = std::max(max_busy, row.busy_core_seconds);
    r.appranks.push_back(row);
  }

  r.parallel_efficiency = total_busy / (total_cores * elapsed);
  const double avg_busy = total_busy / apprank_count;
  r.load_balance = max_busy > 0.0 ? avg_busy / max_busy : 1.0;
  r.communication_efficiency =
      r.load_balance > 0.0 ? r.parallel_efficiency / r.load_balance : 0.0;
  r.transfer_efficiency =
      1.0 - transfer_wait_core_seconds / (total_cores * elapsed);
  return r;
}

std::string render_pop(const PopReport& r) {
  std::ostringstream out;
  char buf[160];
  out << "POP efficiency report (" << r.elapsed << " s elapsed, "
      << r.total_cores << " cores)\n";
  std::snprintf(buf, sizeof(buf), "%-24s %14s %12s %12s\n", "apprank",
                "busy [core-s]", "cores", "par. eff.");
  out << buf;
  for (const PopApprankRow& row : r.appranks) {
    std::snprintf(buf, sizeof(buf), "apprank %-16d %14.3f %12.2f %11.1f%%\n",
                  row.apprank, row.busy_core_seconds, row.nominal_cores,
                  100.0 * row.parallel_efficiency);
    out << buf;
  }
  std::snprintf(buf, sizeof(buf), "%-24s %13.1f%%\n", "parallel efficiency",
                100.0 * r.parallel_efficiency);
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-24s %13.1f%%\n", "load balance",
                100.0 * r.load_balance);
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-24s %13.1f%%\n", "communication eff.",
                100.0 * r.communication_efficiency);
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-24s %13.1f%%\n", "transfer efficiency",
                100.0 * r.transfer_efficiency);
  out << buf;
  return out.str();
}

}  // namespace tlb::obs
