#include "dlb/report.hpp"

#include <cstdio>
#include <sstream>

namespace tlb::dlb {

std::string sched_report(const std::string& policy,
                         const sched::SchedStats& stats) {
  std::ostringstream out;
  out << "Scheduler report (policy: " << policy << ")\n";
  char buf[160];
  const auto pct = [&](std::uint64_t n) {
    return stats.offloads_considered > 0
               ? 100.0 * static_cast<double>(n) /
                     static_cast<double>(stats.offloads_considered)
               : 0.0;
  };
  std::snprintf(buf, sizeof(buf), "%-32s %14llu\n", "victim selections",
                static_cast<unsigned long long>(stats.decisions));
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-32s %14llu\n", "offloads considered",
                static_cast<unsigned long long>(stats.offloads_considered));
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-32s %14llu %11.1f%%\n",
                "offloads steered",
                static_cast<unsigned long long>(stats.offloads_steered),
                pct(stats.offloads_steered));
  out << buf;
  std::snprintf(buf, sizeof(buf), "%-32s %14llu %11.1f%%\n",
                "offloads suppressed",
                static_cast<unsigned long long>(stats.offloads_suppressed),
                pct(stats.offloads_suppressed));
  out << buf;
  if (stats.switches > 0) {
    std::snprintf(buf, sizeof(buf), "%-32s %14llu\n", "policy mode switches",
                  static_cast<unsigned long long>(stats.switches));
    out << buf;
  }
  std::snprintf(buf, sizeof(buf), "%-32s %14llu\n", "state probes",
                static_cast<unsigned long long>(stats.state_touched));
  out << buf;
  if (stats.decisions > 0) {
    std::snprintf(buf, sizeof(buf), "%-32s %14.1f\n", "state probes / decision",
                  static_cast<double>(stats.state_touched) /
                      static_cast<double>(stats.decisions));
    out << buf;
  }
  return out.str();
}

}  // namespace tlb::dlb
