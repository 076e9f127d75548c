// ClusterRuntime — the paper's contribution, assembled.
//
// Simulates an MPI + OmpSs-2@Cluster execution with DLB-based transparent
// load balancing:
//   - appranks and helper ranks placed by a bipartite expander graph (§5.2);
//   - per-apprank task scheduling with the locality-first,
//     two-tasks-per-owned-core rule and a central overflow queue (§5.5),
//     with victim selection pluggable via tlb::sched (RuntimeConfig::sched:
//     "locality" default, "congestion", "waittime");
//   - LeWI lend/borrow/reclaim of idle cores within each node (§5.3);
//   - DROM ownership re-allocation driven by the local convergence or
//     global solver policy (§5.4);
//   - eager data transfers priced by the interconnect model, no automatic
//     write-back (§3.2), pull-to-home at MPI boundaries (§4).
//
// Resilience (tlb::fault + tlb::resil): node speeds and the interconnect
// can be perturbed mid-run and helper ranks can crash. Under Oracle
// detection (the default) crash_worker recovers at once; under Heartbeat
// detection the failure is observed by resil::Monitor (resil/monitor.hpp),
// which this runtime serves as its resil::Host. Either way the DROM
// policy degrades global -> local -> static when a solve throws, and the
// expander is re-wired when an apprank loses its last usable helper.
//
// One ClusterRuntime instance performs one execution of one job on a fixed
// cluster (construct anew per run); traces and statistics remain readable
// afterwards. The node set and the scheduling policy never change mid-run:
// after the startup expander build only DLB moves cores (and a crash
// rewire may add a helper). Node-pool elasticity and the control plane
// live in svc::JobManager.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "core/topology.hpp"
#include "core/workload.hpp"
#include "dlb/core_registry.hpp"
#include "dlb/drom.hpp"
#include "dlb/lewi.hpp"
#include "dlb/talp.hpp"
#include "graph/expander.hpp"
#include "nanos/data_location.hpp"
#include "nanos/dependency_graph.hpp"
#include "nanos/task.hpp"
#include "net/fabric.hpp"
#include "obs/pop.hpp"
#include "obs/span.hpp"
#include "resil/monitor.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "stream/sink.hpp"
#include "trace/recorder.hpp"
#include "vmpi/comm.hpp"

namespace tlb::core {

/// Private sched::RuntimeView and resil::Host implementations: scheduling
/// policies and the Heartbeat-mode monitor reach the runtime only through
/// those narrow interfaces (and unit tests can substitute fakes), while
/// the inheritance stays an implementation detail of the runtime.
class ClusterRuntime : private sched::RuntimeView, private resil::Host {
 public:
  /// Standalone construction: the runtime owns its simulation engine and
  /// run() drives it to completion. With `shared_engine` non-null the
  /// runtime instead schedules onto that engine — the basis of the
  /// multi-tenant service scenario (tlb::svc), where many runtimes (one
  /// per arriving job) interleave their events on one clock. In shared
  /// mode use start()/finalize(). start() takes a fresh engine owner(),
  /// and every event the runtime schedules from then on carries it.
  /// Deferred events (heartbeat and detector timers, solver-latency plan
  /// applications, retransmits) may still be queued after the completion
  /// callback fires; once the caller has retired owner() on the engine
  /// they are dropped unrun, and the runtime may be destroyed — but not
  /// from inside the completion callback, which runs on its stack.
  explicit ClusterRuntime(RuntimeConfig config,
                          sim::Engine* shared_engine = nullptr);

  /// Unregisters the profiler's open-span gauge (if this runtime's is
  /// still the registered one) and balances tlb::prof allocation charges
  /// of bookkeeping still live at teardown.
  ~ClusterRuntime();

  /// Executes the workload to completion and returns the run statistics.
  /// Equivalent to start(workload) + engine run + finalize().
  RunResult run(Workload& workload);

  /// Seeds the initial iteration (plus policy / heartbeat ticks) onto the
  /// engine and returns without running it. `on_complete` fires when the
  /// last iteration's barrier closes (after makespan is recorded), under
  /// the engine's default owner, so the events it schedules do not belong
  /// to this runtime. Whoever holds the engine — run() in standalone mode,
  /// the tlb::svc job manager in shared mode — drives its events.
  void start(Workload& workload, std::function<void()> on_complete = {});

  /// The engine owner of this runtime's events (shared mode: taken by
  /// start(); standalone: the default owner).
  [[nodiscard]] sim::OwnerId owner() const { return owner_; }

  /// Collects the run statistics after completion (makespan, offloading /
  /// DLB / resilience counters) and closes the span recorder. Call once,
  /// after on_complete fired (shared mode) or the engine drained.
  RunResult finalize();

  // Post-run inspection.
  [[nodiscard]] const trace::Recorder& recorder() const { return *recorder_; }
  [[nodiscard]] const Topology& topology() const override { return *topology_; }
  [[nodiscard]] const graph::BipartiteGraph& offload_graph() const {
    return expander_.graph;
  }
  [[nodiscard]] double expander_expansion() const {
    return expander_.expansion;
  }
  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  [[nodiscard]] sim::SimTime now() const override { return engine_.now(); }
  /// The task records. Each iteration's block retires at its barrier
  /// (the last one when the run ends) and is freed then. digest() folds
  /// every retired record; observe_retired_tasks() sees each one.
  [[nodiscard]] const nanos::TaskPool& tasks() const { return pool_; }
  /// Calls `fn` with each task record as it retires, in id order. Set it
  /// before the run; checks of single records after a run go here.
  void observe_retired_tasks(nanos::TaskPool::RetireObserver fn) {
    pool_.set_retire_observer(std::move(fn));
  }
  /// Calls `fn` with a node's core registry (test-only): for every node
  /// each time ownership is recorded (startup split, DROM plan, crash
  /// eviction), and for one node at the end of each of its LeWI rounds
  /// (kick_node). Set it before the run.
  using OwnershipObserver =
      std::function<void(int node, const dlb::NodeCores& cores)>;
  void observe_ownership(OwnershipObserver fn) {
    ownership_observer_ = std::move(fn);
  }

  /// The scheduling policy (tlb::sched; never null after construction),
  /// for post-run inspection of per-policy counters.
  [[nodiscard]] const sched::Scheduler& scheduler() const {
    return *scheduler_;
  }

  // --- observability (tlb::obs) ---------------------------------------------

  /// The in-memory span store, or nullptr unless RuntimeConfig::obs.spans
  /// was set (and obs.stream was not). Feed to trace::chrome_trace_json
  /// (with recorder()) / obs::critical_path. finalize() closes the
  /// recorder, which moves the spans still open into it; before that it
  /// holds finished spans only.
  /// In streaming mode the spill file holds the same spans (the spill
  /// format's reader is a test oracle, tests/stream_reader.hpp).
  [[nodiscard]] const obs::SpanCollector* spans() const {
    return dynamic_cast<const obs::SpanCollector*>(span_recorder_.get());
  }

  /// The spill-file span store, or nullptr unless
  /// RuntimeConfig::obs.stream.enabled. finalize() closes it (open spans,
  /// footer, trailer), after which the spill file is complete and
  /// readable.
  [[nodiscard]] const stream::StreamSink* stream_sink() const {
    return dynamic_cast<const stream::StreamSink*>(span_recorder_.get());
  }

  /// TALP busy-core accounting (post-run inspection; the POP report's
  /// efficiency inputs).
  [[nodiscard]] const dlb::TalpModule& talp() const { return *talp_; }

  /// POP-style efficiency report over the completed run: parallel
  /// efficiency is TALP's aggregate busy / (cores x elapsed); the
  /// transfer-efficiency factor uses the span collector's transfer-wait
  /// integral (0 when span collection was off).
  [[nodiscard]] obs::PopReport pop() const;

  /// The contention-aware fabric (RuntimeConfig::net.enabled), or nullptr
  /// when the analytic cost model is active. Remains readable after run()
  /// for congestion inspection (link utilization, FCT quantiles). The
  /// const overload is also the scheduling policies' congestion signal
  /// (sched::RuntimeView); the non-const one lets fault injectors degrade
  /// individual links.
  [[nodiscard]] net::Fabric* fabric() { return fabric_.get(); }
  [[nodiscard]] const net::Fabric* fabric() const override {
    return fabric_.get();
  }

  // --- perturbation / resilience hooks (tlb::fault) -------------------------

  /// Schedules `fn` at absolute simulated time `t`; the vehicle by which a
  /// FaultInjector plants perturbations into a run before run() starts.
  void schedule_external(sim::SimTime t, std::function<void()> fn) {
    engine_.at(t, std::move(fn));
  }

  /// Changes a node's speed factor from now on. Tasks already executing
  /// finish at their original rate (a task's duration is fixed when it
  /// starts); tasks starting after the change run at the new speed.
  void set_node_speed(int node, double speed);
  [[nodiscard]] double node_speed(int node) const override {
    return node_speed_.at(static_cast<std::size_t>(node));
  }

  /// Installs a link perturbation on all traffic: application messages,
  /// runtime control messages, and eager data transfers. A default
  /// LinkFault restores the nominal interconnect.
  void set_link_fault(const vmpi::LinkFault& fault);

  /// Fail-stop crash of a helper rank (home ranks cannot crash: the
  /// apprank process is the application). Under Oracle detection the full
  /// recovery happens immediately; under Heartbeat detection the worker
  /// merely falls silent and recovery waits for resil::Monitor to
  /// *observe* the failure (lease expiry / heartbeat phi). Idempotent:
  /// crashing a dead worker is a no-op.
  void crash_worker(WorkerId w);
  [[nodiscard]] bool worker_alive(WorkerId w) const override {
    return alive_.at(static_cast<std::size_t>(w)) != 0;
  }
  /// Offload control messages still in flight towards `w` (diagnostic:
  /// must be zero after run() returns).
  [[nodiscard]] int worker_pending(WorkerId w) const {
    return workers_.at(static_cast<std::size_t>(w)).pending;
  }
  [[nodiscard]] int worker_inflight(WorkerId w) const {
    return workers_.at(static_cast<std::size_t>(w)).inflight;
  }
  /// Remote assignments currently covered by a lease (diagnostic: zero
  /// after run() returns).
  [[nodiscard]] std::size_t outstanding_leases() const {
    return monitor_ != nullptr ? monitor_->outstanding_leases() : 0;
  }

  /// Records one timeline mark at the current simulated time
  /// (trace::Recorder::mark).
  void mark_trace(std::string_view label,
                  trace::MarkKind kind = trace::MarkKind::Generic,
                  std::int64_t value = 0);

 private:
  struct WorkerState {
    std::deque<nanos::TaskId> queue;  ///< assigned, waiting for a core
    int inflight = 0;                 ///< assigned + running tasks
    /// Remote assignments whose offload control message is still in
    /// flight. Counted as backlog so LeWI does not lend away the cores
    /// these tasks are about to need.
    int pending = 0;
  };
  /// Bookkeeping for one execution attempt of a task. Keyed by a monotone
  /// exec id in an ordered map, so crash handling iterates executions in
  /// start order — byte-identical re-queue order on every standard
  /// library. Under Heartbeat detection one task can have several live
  /// executions (a disowned "ghost" plus its replacement).
  struct RunningExec {
    nanos::TaskId task = nanos::kNoTask;
    WorkerId worker = -1;
    int node = -1;
    int core = -1;
    bool busy_applied = false;  ///< busy +1 already recorded (data arrived)
    /// Execution disowned after its lease was revoked (false suspicion):
    /// it runs to completion, frees its core, and its completion message
    /// is suppressed at the home runtime.
    bool ghost = false;
    std::uint64_t epoch = 0;  ///< monitor's lease token (0 = unleased)
    sim::EventId busy_event = sim::kInvalidEvent;
    sim::EventId finish_event = sim::kInvalidEvent;
  };
  /// Input transfers in flight for a scheduled task (net mode only): the
  /// task may not begin computing until `remaining` flows have delivered.
  /// When the task claims a core before its data lands, `exec_waiting`
  /// parks the execution (core occupied, not busy) and the last flow's
  /// completion resumes it via begin_compute().
  struct PendingData {
    std::vector<net::FlowId> flows;
    int remaining = 0;
    std::uint64_t exec = 0;     ///< parked execution id
    bool exec_waiting = false;  ///< exec is valid and parked
    sim::SimTime overhead = 0.0;  ///< borrowed-core friction, paid on arrival
    WorkerId worker = -1;         ///< assignee (FCT feedback to the scheduler)
    sim::SimTime started = 0.0;   ///< when the input flows were launched
  };
  struct ApprankState {
    std::unique_ptr<nanos::DependencyGraph> deps;
    std::unique_ptr<nanos::DataLocations> locations;
    std::deque<nanos::TaskId> central;  ///< ready, not yet assigned (§5.5)
    int iteration = 0;
    std::size_t outstanding = 0;  ///< unfinished tasks of this iteration
    sim::SimTime iteration_start = 0.0;
    sim::SimTime taskwait_done = 0.0;
  };

  // SPMD iteration orchestration.
  void start_iteration_all();
  void enter_barrier(int apprank);
  void on_barrier_done();

  // Scheduling (§5.5).
  void on_task_ready(nanos::TaskId id);
  void assign_to_worker(nanos::TaskId id, WorkerId w);
  void finish_assignment(nanos::TaskId id, WorkerId w);
  void start_task(nanos::TaskId id, WorkerId w, int core);
  /// Schedules the busy +1 and completion events of a started execution
  /// after `wait` seconds of occupied-not-busy time (remaining transfer
  /// wait and/or borrowed-core friction). Tail of start_task(), split out
  /// so net mode can defer it to the last input flow's arrival.
  void begin_compute(std::uint64_t exec_id, sim::SimTime wait);
  /// One input flow of `id` delivered (net mode); resumes the parked
  /// execution when it was the last.
  void on_input_arrived(nanos::TaskId id);
  /// Tears down any in-flight input flows of `id` (crash / re-queue).
  void cancel_input_flows(nanos::TaskId id);
  void on_task_finished(std::uint64_t exec_id);
  /// Home-side completion bookkeeping: dependency release, taskwait
  /// accounting, barrier entry.
  void complete_task(nanos::TaskId id) override;
  void kick_node(int node);
  void dispatch(WorkerId w);
  /// Victim selection, delegated to the configured sched::Scheduler
  /// (§5.5's rule is the default "locality" policy). Emits a trace mark
  /// when the policy deviated from the locality baseline.
  [[nodiscard]] int pick_worker(const nanos::Task& task);

  // sched::RuntimeView (the window policies see; see also topology()/now()
  // above and usable() below).
  [[nodiscard]] int owned_cores(WorkerId w) const override;
  [[nodiscard]] int inflight(WorkerId w) const override {
    return workers_[static_cast<std::size_t>(w)].inflight;
  }
  [[nodiscard]] int inflight_per_core() const override {
    return config_.inflight_per_core;
  }
  [[nodiscard]] const nanos::DataLocations& locations(
      int apprank) const override {
    return *appranks_[static_cast<std::size_t>(apprank)].locations;
  }

  // Fault handling (tlb::fault).
  /// Re-queues a task whose assignment to `from` was voided by a crash or
  /// suspicion. `charge_worker` = false when the worker's inflight count
  /// was already settled (its execution completed before the suspicion).
  void rescue_task(nanos::TaskId id, WorkerId from, bool charge_worker = true);
  /// Alive and not quarantined: eligible for pick_worker / LeWI backlog.
  /// (Also part of the sched::RuntimeView window.)
  [[nodiscard]] bool usable(WorkerId w) const override {
    return alive_[static_cast<std::size_t>(w)] != 0 &&
           !(monitor_ != nullptr && monitor_->ejected(w));
  }
  [[nodiscard]] bool any_worker_unusable() const;

  // resil::Host (the Heartbeat-mode monitor's window; see also
  // worker_alive() and node_speed() above, and complete_task()).
  [[nodiscard]] int home_of(WorkerId w) const override {
    return topology_->home_worker(topology_->worker(w).apprank);
  }
  [[nodiscard]] int node_of(WorkerId w) const override {
    return topology_->worker(w).node;
  }
  void offload_delivered(nanos::TaskId id, WorkerId w) override;
  /// Drops the assignment of `id` to `w`, turns a live execution under
  /// `epoch` into a ghost (or aborts it while parked) and re-queues `id`.
  void void_assignment(nanos::TaskId id, WorkerId w, std::uint64_t epoch,
                       bool delivered, bool settled) override;
  void replan(WorkerId w, resil::Verdict verdict) override;
  void mark(std::string_view label) override { mark_trace(label); }
  /// Adds a replacement helper edge when `apprank` has no usable helper
  /// left (expander rewire across graph / topology / vmpi / DLB layers).
  void maybe_rewire(int apprank);
  /// Registers one new helper of `apprank` on `node` in every layer (graph
  /// edge, topology slot, control-plane rank, TALP and monitor state,
  /// per-worker runtime vectors).
  WorkerId add_worker(int apprank, int node);

  // Observability (tlb::obs).
  /// The span sink lifecycle hooks emit into: the span recorder when
  /// config_.obs.stream.enabled or config_.obs.spans is set, else a no-op
  /// (one virtual call and nothing else — the disabled path stays cheap
  /// at the call sites).
  [[nodiscard]] obs::SpanSink& sink() {
    return span_recorder_ != nullptr ? *span_recorder_ : null_sink_;
  }

  // DROM policy loop (§5.4).
  void schedule_policy_tick();
  void policy_tick();
  /// Re-solves ownership now instead of at the next periodic tick (after a
  /// crash, suspicion or readmission); no-op without DROM or once the run
  /// is done.
  void resolve_now();
  void apply_plan(const OwnershipPlan& plan);
  void record_ownership();

  RuntimeConfig config_;
  /// Owned in standalone mode, null when a shared engine was passed;
  /// engine_ aliases whichever is active (declared in this order so the
  /// reference can bind in the member-initializer list).
  std::unique_ptr<sim::Engine> owned_engine_;
  sim::Engine& engine_;
  graph::ExpanderResult expander_;
  std::unique_ptr<Topology> topology_;
  /// Runtime control plane: one rank per worker process; offload /
  /// completion / heartbeat / ack messages travel here (and thus see link
  /// faults).
  std::unique_ptr<vmpi::Communicator> ctrl_comm_;
  std::vector<std::unique_ptr<dlb::NodeCores>> node_cores_;
  std::vector<std::unique_ptr<dlb::LewiModule>> lewi_;
  std::vector<std::unique_ptr<dlb::DromModule>> drom_;
  std::unique_ptr<dlb::TalpModule> talp_;
  std::unique_ptr<trace::Recorder> recorder_;
  /// The per-task span recorder (config_.obs.spans or obs.stream only): a
  /// SpanCollector or a StreamSink. Declared before fabric_/scheduler_,
  /// which hold raw sink pointers into the recorder.
  std::unique_ptr<obs::SpanRecorder> span_recorder_;
  obs::SpanSink null_sink_;
  /// Non-null iff config_.net.enabled (declared after recorder_: the
  /// fabric holds a raw pointer to the recorder).
  std::unique_ptr<net::Fabric> fabric_;
  /// The victim-selection policy (tlb::sched), built from config_.sched by
  /// the policy table. Declared after the state it reads through the
  /// RuntimeView window.
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::map<nanos::TaskId, PendingData> pending_data_;
  nanos::TaskPool pool_;
  std::vector<ApprankState> appranks_;
  std::vector<WorkerState> workers_;
  Workload* workload_ = nullptr;
  /// The one store of the run statistics: event counters are incremented
  /// here live, and finalize() adds the per-subsystem totals.
  RunResult result_;
  std::vector<double> busy_smoothed_;  ///< EMA of policy work estimates
  int barrier_arrivals_ = 0;  ///< appranks in the current barrier
  sim::SimTime last_barrier_time_ = 0.0;
  bool done_ = false;
  /// The engine owner of this runtime's events: a fresh one taken by
  /// start() in shared mode, the default owner standalone.
  sim::OwnerId owner_ = sim::kDefaultOwner;
  sim::EventId policy_event_ = sim::kInvalidEvent;
  /// Engine time at start(); 0 in standalone mode. Makespan and the POP
  /// elapsed time are measured relative to it so a runtime started
  /// mid-simulation (shared engine) reports its own execution time.
  sim::SimTime start_time_ = 0.0;
  std::function<void()> on_complete_;  ///< fires once, at the last barrier
  OwnershipObserver ownership_observer_;  ///< test-only; see above

  // Fault state (tlb::fault).
  std::vector<double> node_speed_;  ///< current speed factor per node
  std::vector<char> alive_;         ///< per-worker liveness (1 = alive)
  std::map<std::uint64_t, RunningExec> running_;  ///< keyed by exec id
  std::uint64_t next_exec_ = 0;
  vmpi::LinkFault link_fault_;
  sim::Rng fault_rng_ = sim::Rng(0);  ///< reseeded from config_.seed
  /// The Heartbeat-mode protocol; null under DetectionMode::Oracle.
  std::unique_ptr<resil::Monitor> monitor_;
  int policy_level_ = 0;  ///< fallback rung: 0 primary, 1 local, 2 static
};

}  // namespace tlb::core
