#include "core/sched_table.hpp"

#include <stdexcept>

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

std::string sched_policy_error(const std::string& name) {
  std::string valid;
  for (const Entry& e : kPolicies) {
    if (name == e.name) return "";
    if (!valid.empty()) valid += ", ";
    valid += e.name;
  }
  return "RuntimeConfig::sched: unknown scheduling policy '" + name +
         "'; valid values: " + valid;
}

std::unique_ptr<sched::Scheduler> make_scheduler(
    const RuntimeConfig& config, const sched::RuntimeView& view) {
  for (const Entry& e : kPolicies) {
    if (config.sched.policy == e.name) return e.make(config, view);
  }
  throw std::invalid_argument(sched_policy_error(config.sched.policy));
}

}  // namespace tlb::core
