// The table of victim-selection policies (tlb::sched + tlb::hier).
//
// RuntimeConfig::sched.policy names one of five policies. This table is
// the one place that maps those names to constructors: ClusterRuntime
// builds its scheduler through it. It lives in core, the lowest layer
// that links both tlb_sched and tlb_hier, so every name resolves in any
// process without a registration step.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "sched/scheduler.hpp"

namespace tlb::core {

/// Builds the policy named `config.sched.policy` over `view`, which must
/// outlive it ("hier" takes `config.hier`'s tuning). Throws
/// std::invalid_argument on an unknown name, naming it and listing every
/// valid value in table order: "locality" (the default), "congestion",
/// "waittime", "adaptive", "hier".
[[nodiscard]] std::unique_ptr<sched::Scheduler> make_scheduler(
    const RuntimeConfig& config, const sched::RuntimeView& view);

}  // namespace tlb::core
