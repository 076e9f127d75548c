// The table of victim-selection policies (tlb::sched + tlb::hier).
//
// RuntimeConfig::sched.policy names one of five policies. This table is
// the one place that maps those names to constructors: ClusterRuntime
// builds its scheduler through it and svc::JobManager validates
// "tlb.sched.policy" pushes against it. It lives in core, the lowest layer
// that links both tlb_sched and tlb_hier, so every name resolves in any
// process without a registration step.
#pragma once

#include <memory>
#include <string>

#include "core/config.hpp"
#include "sched/scheduler.hpp"

namespace tlb::core {

/// Empty when `name` is in the table; otherwise an error naming `name` and
/// listing every valid value in table order: "locality" (the default),
/// "congestion", "waittime", "adaptive", "hier".
[[nodiscard]] std::string sched_policy_error(const std::string& name);

/// Builds the policy named `config.sched.policy` over `view`, which must
/// outlive it ("hier" takes `config.hier`'s tuning). Throws
/// std::invalid_argument with sched_policy_error's text on an unknown name.
[[nodiscard]] std::unique_ptr<sched::Scheduler> make_scheduler(
    const RuntimeConfig& config, const sched::RuntimeView& view);

}  // namespace tlb::core
