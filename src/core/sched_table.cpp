#include "core/sched_table.hpp"

#include <stdexcept>
#include <string>

#include "hier/hier_scheduler.hpp"
#include "sched/policies.hpp"

namespace tlb::core {

namespace {

using Factory = std::unique_ptr<sched::Scheduler> (*)(
    const RuntimeConfig&, const sched::RuntimeView&);

struct Entry {
  const char* name;
  Factory make;
};

constexpr Entry kPolicies[] = {
    {"locality",
     [](const RuntimeConfig&, const sched::RuntimeView& view)
         -> std::unique_ptr<sched::Scheduler> {
       return std::make_unique<sched::LocalityScheduler>(view);
     }},
    {"congestion",
     [](const RuntimeConfig&, const sched::RuntimeView& view)
         -> std::unique_ptr<sched::Scheduler> {
       return std::make_unique<sched::CongestionScheduler>(view);
     }},
    {"waittime",
     [](const RuntimeConfig&, const sched::RuntimeView& view)
         -> std::unique_ptr<sched::Scheduler> {
       return std::make_unique<sched::WaittimeScheduler>(view);
     }},
    {"adaptive",
     [](const RuntimeConfig&, const sched::RuntimeView& view)
         -> std::unique_ptr<sched::Scheduler> {
       return std::make_unique<sched::AdaptiveScheduler>(view);
     }},
    {"hier",
     [](const RuntimeConfig& c, const sched::RuntimeView& view)
         -> std::unique_ptr<sched::Scheduler> {
       return std::make_unique<hier::HierScheduler>(c.hier, view);
     }},
};

}  // namespace

std::unique_ptr<sched::Scheduler> make_scheduler(
    const RuntimeConfig& config, const sched::RuntimeView& view) {
  std::string valid;
  for (const Entry& e : kPolicies) {
    if (config.sched.policy == e.name) return e.make(config, view);
    if (!valid.empty()) valid += ", ";
    valid += e.name;
  }
  throw std::invalid_argument(
      "RuntimeConfig::sched: unknown scheduling policy '" +
      config.sched.policy + "'; valid values: " + valid);
}

}  // namespace tlb::core
