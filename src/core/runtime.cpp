#include "core/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/sched_table.hpp"
#include "prof/prof.hpp"
#include "solver/allocation.hpp"

namespace tlb::core {

namespace {

// Tags for deriving independent child RNG streams from RuntimeConfig::seed
// (the expander consumes the seed directly).
constexpr std::uint64_t kSeedWorkload = 0xA995;
constexpr std::uint64_t kSeedFaultJitter = 0xFA17;
constexpr std::uint64_t kSeedCtrlComm = 0xC0A2;

/// Applies an ownership plan directly (initial division, bypassing the
/// DromModule enable flag: the startup split of §5.4 always happens).
void force_plan(dlb::NodeCores& cores,
                const std::vector<std::pair<dlb::WorkerId, int>>& node_plan) {
  int cursor = 0;
  for (const auto& [w, count] : node_plan) {
    for (int k = 0; k < count; ++k) {
      cores.set_owner(cursor++, w);
    }
  }
  assert(cursor == cores.core_count() && "plan must cover every core");
}

}  // namespace

ClusterRuntime::ClusterRuntime(RuntimeConfig config, sim::Engine* shared_engine)
    : config_(std::move(config)),
      owned_engine_(shared_engine == nullptr ? std::make_unique<sim::Engine>()
                                             : nullptr),
      engine_(shared_engine != nullptr ? *shared_engine : *owned_engine_) {
  // Turn the process-global profiler on before the first instrumented
  // scope so construction itself is attributed ("core.construct").
  if (config_.prof.enabled) {
    prof::Profiler::instance().enable(config_.prof.snapshot_every_events);
  }
  PROF_SCOPE("core.construct");
  graph::ExpanderParams params;
  params.nodes = config_.cluster.node_count();
  params.appranks_per_node = config_.appranks_per_node;
  params.degree = config_.degree;
  params.seed = config_.seed;
  expander_ = graph::build_expander(params);
  topology_ = std::make_unique<Topology>(expander_.graph,
                                         config_.appranks_per_node);

  // Control plane: one vmpi rank per worker process, so offload/finish
  // notifications are priced by the interconnect and see link faults.
  std::vector<int> worker_to_node(
      static_cast<std::size_t>(topology_->worker_count()));
  for (int w = 0; w < topology_->worker_count(); ++w) {
    worker_to_node[static_cast<std::size_t>(w)] = topology_->worker(w).node;
  }
  ctrl_comm_ = std::make_unique<vmpi::Communicator>(
      engine_, config_.cluster.link, std::move(worker_to_node));

  // Single-seed reproducibility: every stochastic component draws from an
  // independent child stream of config_.seed.
  const sim::Rng root(config_.seed);
  fault_rng_ = root.fork(kSeedFaultJitter);
  ctrl_comm_->set_fault_seed(root.fork(kSeedCtrlComm).next_u64());

  node_speed_.reserve(config_.cluster.nodes.size());
  for (const auto& n : config_.cluster.nodes) node_speed_.push_back(n.speed);
  alive_.assign(static_cast<std::size_t>(topology_->worker_count()), 1);
  if (config_.resil.detection == resil::DetectionMode::Heartbeat) {
    resil::Host& host = *this;
    monitor_ = std::make_unique<resil::Monitor>(engine_, *ctrl_comm_, host,
                                                topology_->worker_count());
  }
  policy_level_ = config_.policy == PolicyKind::Global ? 0 : 1;

  node_cores_.reserve(static_cast<std::size_t>(topology_->node_count()));
  lewi_.reserve(node_cores_.capacity());
  drom_.reserve(node_cores_.capacity());
  for (int n = 0; n < topology_->node_count(); ++n) {
    const int cores = config_.cluster.nodes[static_cast<std::size_t>(n)].cores;
    const auto& residents = topology_->workers_on_node(n);
    assert(!residents.empty());
    if (static_cast<int>(residents.size()) > cores) {
      throw std::invalid_argument(
          "ClusterRuntime: node " + std::to_string(n) + " hosts " +
          std::to_string(residents.size()) + " workers but has only " +
          std::to_string(cores) +
          " cores; lower the offloading degree or appranks per node");
    }
    node_cores_.push_back(
        std::make_unique<dlb::NodeCores>(cores, residents.front()));
    lewi_.push_back(
        std::make_unique<dlb::LewiModule>(*node_cores_.back(), config_.lewi));
    drom_.push_back(std::make_unique<dlb::DromModule>(*node_cores_.back(),
                                                      config_.drom_active()));
  }

  talp_ = std::make_unique<dlb::TalpModule>(
      [this] { return engine_.now(); }, topology_->worker_count());
  recorder_ = std::make_unique<trace::Recorder>(topology_->node_count(),
                                                topology_->apprank_count(),
                                                config_.record_traces);
  if (config_.obs.stream.enabled) {
    // Streaming store: finished spans spill to disk. Supersedes the
    // in-memory collector when both are requested (same events, bounded
    // memory). The spill is also the run's mark record, so the recorder
    // keeps none of the marks.
    auto sink = std::make_unique<stream::StreamSink>(config_.obs.stream);
    recorder_->spill_marks_to(sink.get());
    span_recorder_ = std::move(sink);
  } else if (config_.obs.spans) {
    span_recorder_ = std::make_unique<obs::SpanCollector>();
  }

  // Contention-aware interconnect (tlb::net): replace the analytic cost
  // model with a shared-link fabric. The control plane routes its
  // inter-node messages through it; eager input transfers and barrier
  // pulls become per-source flows (finish_assignment / enter_barrier).
  if (config_.net.enabled) {
    const sim::LinkSpec& link = config_.cluster.link;
    const net::NetConfig& nconf = config_.net;
    fabric_ = std::make_unique<net::Fabric>(
        engine_, net::NetTopology::fat_tree(
                     topology_->node_count(), nconf.leaf_radix, nconf.spines,
                     link.bandwidth, nconf.uplink_bw(link), link.latency,
                     net::kPerHopLatency));
    fabric_->set_recorder(recorder_.get());
    ctrl_comm_->attach_fabric(fabric_.get());
  }

  workers_.resize(static_cast<std::size_t>(topology_->worker_count()));
  appranks_.resize(static_cast<std::size_t>(topology_->apprank_count()));

  // Victim-selection policy (tlb::sched / tlb::hier). Built last so it can
  // observe the fully-constructed runtime through the RuntimeView window;
  // throws on an unknown policy name (listing the valid values). The base
  // conversion happens here, in member context, where the private
  // sched::RuntimeView base is accessible.
  const sched::RuntimeView& view = *this;
  scheduler_ = make_scheduler(config_, view);

  if (config_.prof.enabled) {
    // Health snapshots report the telemetry working set through this
    // gauge; cleared in the destructor so the callback never dangles.
    prof::Profiler::instance().set_open_spans_gauge(
        this, [this]() -> std::int64_t {
          return span_recorder_ != nullptr
                     ? static_cast<std::int64_t>(span_recorder_->open_spans())
                     : 0;
        });
  }
}

ClusterRuntime::~ClusterRuntime() {
  // A no-op unless this runtime's gauge is still the registered one.
  prof::Profiler::instance().clear_open_spans_gauge(this);
  if (prof::enabled()) {
    // Balance the core.exec / core.pending charges of records still live
    // at teardown (an aborted run, or executions parked on a crash).
    if (!running_.empty()) {
      prof::free_note(prof::AllocTag::CoreExec,
                      running_.size() * sizeof(RunningExec));
    }
    for (const auto& [id, pd] : pending_data_) {
      (void)id;
      prof::free_note(
          prof::AllocTag::CorePending,
          sizeof(PendingData) + pd.flows.capacity() * sizeof(net::FlowId));
    }
  }
}

obs::PopReport ClusterRuntime::pop() const {
  std::vector<int> worker_apprank;
  worker_apprank.reserve(static_cast<std::size_t>(topology_->worker_count()));
  for (int w = 0; w < topology_->worker_count(); ++w) {
    worker_apprank.push_back(topology_->worker(w).apprank);
  }
  double total_cores = 0.0;
  for (const auto& n : config_.cluster.nodes) total_cores += n.cores;
  const double elapsed = result_.makespan > 0.0
                             ? result_.makespan
                             : engine_.now() - start_time_;
  const double transfer_wait =
      span_recorder_ != nullptr ? span_recorder_->transfer_wait_core_seconds()
                                : 0.0;
  return obs::pop_report(*talp_, worker_apprank, topology_->apprank_count(),
                         total_cores, elapsed, transfer_wait);
}

RunResult ClusterRuntime::run(Workload& workload) {
  start(workload);
  engine_.run();
  return finalize();
}

void ClusterRuntime::start(Workload& workload,
                           std::function<void()> on_complete) {
  // Pre-loop setup (task graph materialisation, initial ownership plan)
  // runs outside the engine loop, so it needs its own attribution bucket.
  PROF_SCOPE("core.start");
  // Shared mode: the seeded events, and through them everything this run
  // schedules, carry this runtime's own owner, which the caller retires.
  if (owned_engine_ == nullptr) owner_ = engine_.new_owner();
  const sim::Engine::OwnerScope scope(engine_, owner_);
  workload_ = &workload;
  on_complete_ = std::move(on_complete);
  start_time_ = engine_.now();
  last_barrier_time_ = engine_.now();
  workload.reseed(sim::Rng(config_.seed).fork(kSeedWorkload).next_u64());

  // Initial ownership: one core per helper, the rest split among the
  // node's appranks (§5.4).
  std::vector<int> node_core_counts;
  node_core_counts.reserve(config_.cluster.nodes.size());
  for (const auto& n : config_.cluster.nodes) node_core_counts.push_back(n.cores);
  const OwnershipPlan initial = initial_plan(*topology_, node_core_counts);
  for (int n = 0; n < topology_->node_count(); ++n) {
    force_plan(*node_cores_[static_cast<std::size_t>(n)],
               initial[static_cast<std::size_t>(n)]);
  }
  record_ownership();

  for (int a = 0; a < topology_->apprank_count(); ++a) {
    ApprankState& st = appranks_[static_cast<std::size_t>(a)];
    st.deps = std::make_unique<nanos::DependencyGraph>(pool_);
    st.locations =
        std::make_unique<nanos::DataLocations>(topology_->home_node(a));
  }

  if (config_.drom_active()) schedule_policy_tick();
  if (monitor_ != nullptr) monitor_->start();
  start_iteration_all();
}

RunResult ClusterRuntime::finalize() {
  PROF_SCOPE("core.finalize");
  result_.tasks_total = recorder_->tasks_total();
  result_.tasks_offloaded = recorder_->tasks_offloaded();
  result_.work_total = recorder_->work_total();
  result_.work_offloaded = recorder_->work_offloaded();
  for (const auto& lw : lewi_) {
    result_.lewi_lends += lw->lends();
    result_.lewi_borrows += lw->borrows();
    result_.lewi_reclaims += lw->reclaims();
  }
  for (const auto& dm : drom_) result_.drom_moves += dm->ownership_changes();
  result_.retransmissions = ctrl_comm_->messages_lost();
  result_.sched_policy = scheduler_->name();
  result_.sched = scheduler_->stats();
  result_.events_fired = engine_.events_fired();
  result_.tasks_not_exactly_once = pool_.not_exactly_once();
  if (monitor_ != nullptr) {
    static_cast<resil::Counters&>(result_) = monitor_->counters();
    result_.control_messages += monitor_->control_messages();
  }

  if (span_recorder_ != nullptr) {
    // Closing moves the unfinished spans into the collector and completes
    // the spill file (footer + trailer), its byte count final when the
    // bench reads it.
    span_recorder_->close();
  }
  return result_;
}

// --- SPMD iteration orchestration -------------------------------------------

void ClusterRuntime::start_iteration_all() {
  double iteration_work = 0.0;
  for (int a = 0; a < topology_->apprank_count(); ++a) {
    ApprankState& st = appranks_[static_cast<std::size_t>(a)];
    st.iteration_start = engine_.now();
    const auto specs = workload_->make_tasks(a, st.iteration);
    st.outstanding = specs.size();
    for (const TaskSpec& spec : specs) {
      iteration_work += spec.work;
      const nanos::TaskId id =
          pool_.create(a, spec.work, spec.accesses, spec.offloadable);
      sink().task_created(id, a, engine_.now());
      if (st.deps->register_task(id)) {
        pool_.get(id).ready_at = engine_.now();
        sink().task_ready(id, nanos::kNoTask, engine_.now());
        on_task_ready(id);
      }
    }
    if (st.outstanding == 0) enter_barrier(a);
  }
  result_.perfect_time += iteration_work / config_.cluster.total_capacity();
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);
}

void ClusterRuntime::enter_barrier(int apprank) {
  ApprankState& st = appranks_[static_cast<std::size_t>(apprank)];
  st.taskwait_done = engine_.now();
  // The apprank's MPI exchange runs in non-offloadable context on the home
  // node: pull any remote result data home first (§4, §3.2 no automatic
  // write-back — this is the point where values are actually needed).
  const auto regions = workload_->barrier_regions(apprank, st.iteration);
  const int home = topology_->home_node(apprank);
  auto do_barrier = [this] {
    const int appranks = topology_->apprank_count();
    if (++barrier_arrivals_ < appranks) return;
    barrier_arrivals_ = 0;
    // Dissemination barrier: the last arrival releases everyone after
    // ceil(log2 P) rounds of one link latency each.
    const int rounds = std::bit_width(static_cast<unsigned>(appranks - 1));
    engine_.after(config_.cluster.link.latency * link_fault_.latency_mult *
                      static_cast<double>(rounds),
                  [this] { on_barrier_done(); });
  };
  if (fabric_ != nullptr) {
    // Net mode: each remote piece streams home as its own flow (sharing
    // the fabric with every other transfer); the barrier is entered when
    // the last one lands. Home nodes never crash, so no teardown needed.
    const auto sources = st.locations->pull_by_source(regions, home);
    auto remaining = std::make_shared<int>(0);
    for (const auto& [src, bytes] : sources) {
      result_.transfer_bytes += bytes;
      *remaining += 1;
      fabric_->start_flow(src, home, bytes, [remaining, do_barrier] {
        if (--*remaining == 0) do_barrier();
      });
    }
    if (*remaining == 0) do_barrier();
    return;
  }
  const std::uint64_t bytes = st.locations->pull(regions, home);
  sim::SimTime delay = 0.0;
  if (bytes > 0) {
    delay = vmpi::faulted_link_time(config_.cluster.link, link_fault_, bytes,
                                    fault_rng_);
    result_.transfer_bytes += bytes;
  }
  engine_.after(delay, do_barrier);
}

void ClusterRuntime::on_barrier_done() {
  const int iteration = appranks_.front().iteration;
  // Every task created so far has finished; nothing reads or writes their
  // records again (ghosts, zombies and stale messages carry what they
  // need).
  pool_.retire_below(pool_.size());
  result_.iteration_times.push_back(engine_.now() - last_barrier_time_);
  last_barrier_time_ = engine_.now();
  if (auto* sink = dynamic_cast<stream::StreamSink*>(span_recorder_.get())) {
    // Windowed telemetry snapshot at the barrier epoch: cumulative engine
    // and spill counters, differenced by readers for per-window rates.
    sink->metric_window(iteration, engine_.now(), engine_.events_fired());
  }

  std::vector<double> apprank_times(
      static_cast<std::size_t>(topology_->apprank_count()));
  for (int a = 0; a < topology_->apprank_count(); ++a) {
    ApprankState& st = appranks_[static_cast<std::size_t>(a)];
    apprank_times[static_cast<std::size_t>(a)] =
        st.taskwait_done - st.iteration_start;
    ++st.iteration;
  }
  workload_->on_iteration_done(iteration, apprank_times);

  if (iteration + 1 < workload_->iteration_count()) {
    start_iteration_all();
  } else {
    done_ = true;
    if (monitor_ != nullptr) monitor_->stop();
    result_.makespan = engine_.now() - start_time_;
    engine_.cancel(policy_event_);
    policy_event_ = sim::kInvalidEvent;
    if (on_complete_) {
      const sim::Engine::OwnerScope scope(engine_, sim::kDefaultOwner);
      on_complete_();
    }
  }
}

// --- Scheduling (§5.5) --------------------------------------------------------

int ClusterRuntime::owned_cores(WorkerId w) const {
  const int node = topology_->worker(w).node;
  return node_cores_[static_cast<std::size_t>(node)]->owned_count(w);
}

int ClusterRuntime::pick_worker(const nanos::Task& task) {
  PROF_SCOPE("sched.pick");
  // The §5.5 rule itself lives in tlb::sched (Scheduler::locality_pick,
  // the "locality" policy); alternative policies steer or suppress
  // offloads based on runtime feedback. Deviations from the baseline are
  // annotated on the trace timeline so figure scripts can correlate them
  // with congestion marks.
  const sched::Decision d = scheduler_->pick(task);
  if (d.kind == sched::DecisionKind::Steered) {
    mark_trace("sched steer: task " + std::to_string(task.id) +
                   " -> worker " + std::to_string(d.worker),
               trace::MarkKind::SchedSteer, d.worker);
    sink().sched_decision(task.id, obs::SchedVerdict::Steered);
  } else if (d.kind == sched::DecisionKind::Suppressed) {
    mark_trace("sched suppress: task " + std::to_string(task.id) +
                   (d.worker >= 0 ? " held home" : " held centrally"),
               trace::MarkKind::SchedSuppress, d.worker);
    sink().sched_decision(task.id, obs::SchedVerdict::Suppressed);
  }
  return d.worker;
}

void ClusterRuntime::on_task_ready(nanos::TaskId id) {
  nanos::Task& task = pool_.get(id);
  assert(task.state == nanos::TaskState::Ready);
  if (!task.offloadable) {
    // Must execute in the apprank's own process (it may call MPI, §4).
    assign_to_worker(id, topology_->home_worker(task.apprank));
    return;
  }
  const int w = pick_worker(task);
  if (w >= 0) {
    assign_to_worker(id, w);
  } else {
    appranks_[static_cast<std::size_t>(task.apprank)].central.push_back(id);
  }
}

void ClusterRuntime::assign_to_worker(nanos::TaskId id, WorkerId w) {
  nanos::Task& task = pool_.get(id);
  const WorkerInfo& info = topology_->worker(w);
  assert(usable(w));
  // Control messages name the apprank of the worker, not of the record.
  assert(info.apprank == task.apprank);
  task.state = nanos::TaskState::Scheduled;
  task.scheduled_node = info.node;
  workers_[static_cast<std::size_t>(w)].inflight += 1;
  sink().task_scheduled(id, w, info.node, !info.is_home, engine_.now());

  // Offloading is final from here (§5.5). A home assignment is a local
  // runtime call; a remote one is an offload control message over the
  // control plane (it pays the link latency and can be degraded or lost
  // and retransmitted). The eager input transfer starts once the helper
  // has learned of the task.
  if (info.is_home) {
    finish_assignment(id, w);
    return;
  }
  ++result_.control_messages;
  workers_[static_cast<std::size_t>(w)].pending += 1;
  if (monitor_ != nullptr) {
    // Heartbeat detection: the offload travels under a lease (ACK,
    // retransmit, expiry) and is delivered through the monitor.
    monitor_->offload(id, w, task.work);
    return;
  }
  ctrl_comm_->send(topology_->home_worker(task.apprank), w, 0, [this, id, w] {
    if (alive_[static_cast<std::size_t>(w)]) return offload_delivered(id, w);
    // The helper crashed while the offload message was in flight: the task
    // must not land there.
    workers_[static_cast<std::size_t>(w)].pending -= 1;
    rescue_task(id, w);
  });
}

void ClusterRuntime::offload_delivered(nanos::TaskId id, WorkerId w) {
  workers_[static_cast<std::size_t>(w)].pending -= 1;
  finish_assignment(id, w);
  kick_node(topology_->worker(w).node);
}

void ClusterRuntime::finish_assignment(nanos::TaskId id, WorkerId w) {
  nanos::Task& task = pool_.get(id);
  const WorkerInfo& info = topology_->worker(w);
  nanos::DataLocations& loc =
      *appranks_[static_cast<std::size_t>(task.apprank)].locations;
  if (fabric_ != nullptr) {
    // Net mode: one flow per source node holding a missing piece of the
    // task's input. The task may not compute before the last flow lands
    // (on_input_arrived); data_ready_at is refined there.
    const auto sources = loc.missing_by_source(task.accesses, info.node);
    std::uint64_t bytes = 0;
    PendingData pd;
    for (const auto& [src, b] : sources) {
      bytes += b;
      pd.flows.push_back(fabric_->start_flow(
          src, info.node, b, [this, id] { on_input_arrived(id); }));
    }
    task.data_ready_at = engine_.now();
    if (bytes > 0) {
      result_.transfer_bytes += bytes;
      sink().transfer_begin(id, bytes, info.node, engine_.now());
      pd.remaining = static_cast<int>(pd.flows.size());
      pd.worker = w;
      pd.started = engine_.now();
      prof::alloc_note(
          prof::AllocTag::CorePending,
          sizeof(PendingData) + pd.flows.capacity() * sizeof(net::FlowId));
      pending_data_[id] = std::move(pd);
    }
    workers_[static_cast<std::size_t>(w)].queue.push_back(id);
    return;
  }
  const std::uint64_t bytes =
      loc.missing_input_bytes(task.accesses, info.node);
  sim::SimTime cost = 0.0;
  if (bytes > 0) {
    cost = vmpi::faulted_link_time(config_.cluster.link, link_fault_, bytes,
                                   fault_rng_);
    result_.transfer_bytes += bytes;
    // The analytic model resolves the transfer window up front; record
    // both edges now (the end timestamp lies in the future, which the
    // span record represents exactly).
    sink().transfer_begin(id, bytes, info.node, engine_.now());
    sink().transfer_end(id, engine_.now() + cost);
  }
  task.data_ready_at = engine_.now() + cost;
  workers_[static_cast<std::size_t>(w)].queue.push_back(id);
}

void ClusterRuntime::dispatch(WorkerId w) {
  if (!usable(w)) return;
  const WorkerInfo& info = topology_->worker(w);
  dlb::NodeCores& nc = *node_cores_[static_cast<std::size_t>(info.node)];
  WorkerState& ws = workers_[static_cast<std::size_t>(w)];
  ApprankState& st = appranks_[static_cast<std::size_t>(info.apprank)];

  while (true) {
    const int idle = nc.idle_leased_count(w);
    if (idle == 0) return;
    if (ws.queue.empty()) {
      // Steal from the apprank's central queue: an idle core is capacity
      // by definition ("stolen as tasks complete", §5.5). A remote
      // assignment is asynchronous (offload control message in flight),
      // so pre-claim at most one in-flight task per idle core; each
      // delivery callback kicks this node again.
      if (st.central.empty()) return;
      if (ws.pending >= idle) return;
      const nanos::TaskId id = st.central.front();
      st.central.pop_front();
      assign_to_worker(id, w);
      continue;
    }
    const nanos::TaskId id = ws.queue.front();
    ws.queue.pop_front();
    start_task(id, w, nc.first_idle_leased(w));
  }
}

void ClusterRuntime::start_task(nanos::TaskId id, WorkerId w, int core) {
  nanos::Task& task = pool_.get(id);
  const WorkerInfo& info = topology_->worker(w);
  assert(task.state == nanos::TaskState::Scheduled);
  task.state = nanos::TaskState::Running;
  task.start_at = engine_.now();
  task.executed_worker = w;
  task.executed_core = core;
  task.executions += 1;
  // Feedback to the scheduling policy: how long the task waited between
  // readiness and claiming a core (the "waittime" offload-throttle signal).
  scheduler_->on_task_started(task, w, engine_.now() - task.ready_at);

  dlb::NodeCores& nc = *node_cores_[static_cast<std::size_t>(info.node)];
  nc.task_started(core);

  sim::SimTime transfer_wait =
      std::max(0.0, task.data_ready_at - engine_.now());
  if (nc.owner(core) != w) {
    // Borrowed core: pay the lend/borrow friction (§5.5 — borrowed cores
    // are never as efficient as owned ones).
    transfer_wait += config_.borrowed_core_overhead;
  }

  RunningExec run;
  run.task = id;
  run.worker = w;
  run.node = info.node;
  run.core = core;
  if (monitor_ != nullptr) run.epoch = monitor_->epoch_of(id, w);
  const std::uint64_t exec_id = next_exec_++;

  auto pd = pending_data_.find(id);
  if (pd != pending_data_.end() && pd->second.remaining > 0) {
    // Net mode: the inputs are still streaming over the fabric. Park the
    // execution (core occupied, not busy — same semantics as the analytic
    // transfer wait); the last flow's arrival resumes it. The borrowed-
    // core friction is paid after the data lands, mirroring the analytic
    // path where it extends the transfer wait.
    pd->second.exec = exec_id;
    pd->second.exec_waiting = true;
    pd->second.overhead = transfer_wait;
    prof::alloc_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
    running_.emplace(exec_id, run);
    return;
  }

  prof::alloc_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
  running_.emplace(exec_id, run);
  begin_compute(exec_id, transfer_wait);
}

void ClusterRuntime::begin_compute(std::uint64_t exec_id, sim::SimTime wait) {
  auto it = running_.find(exec_id);
  assert(it != running_.end());
  RunningExec& run = it->second;
  const WorkerId w = run.worker;
  const int node = run.node;
  const int apprank = topology_->worker(w).apprank;
  const double speed = node_speed_[static_cast<std::size_t>(node)];
  const sim::SimTime compute = pool_.get(run.task).work / speed;

  // Busy accounting covers the compute phase only: a core waiting for data
  // is occupied but not busy (the paper's borrowed-core under-utilisation).
  if (wait > 0.0) {
    run.busy_event =
        engine_.after(wait, [this, exec_id, w, node, apprank] {
          talp_->on_busy_delta(w, +1);
          recorder_->busy_delta(engine_.now(), node, apprank, +1);
          auto it2 = running_.find(exec_id);
          assert(it2 != running_.end());
          it2->second.busy_applied = true;
          // A ghost's lease moved on and the task already has a newer
          // attempt; recording into it would corrupt that attempt.
          if (!it2->second.ghost) {
            sink().exec_begin(it2->second.task, w, node, it2->second.core,
                              engine_.now());
          }
        });
  } else {
    talp_->on_busy_delta(w, +1);
    recorder_->busy_delta(engine_.now(), node, apprank, +1);
    run.busy_applied = true;
    if (!run.ghost) {
      sink().exec_begin(run.task, w, node, run.core, engine_.now());
    }
  }
  run.finish_event = engine_.after(wait + compute, [this, exec_id] {
    on_task_finished(exec_id);
  });
}

void ClusterRuntime::on_input_arrived(nanos::TaskId id) {
  auto it = pending_data_.find(id);
  if (it == pending_data_.end()) return;  // torn down meanwhile
  PendingData& pd = it->second;
  assert(pd.remaining > 0);
  if (--pd.remaining > 0) return;
  pool_.get(id).data_ready_at = engine_.now();
  sink().transfer_end(id, engine_.now());
  const bool waiting = pd.exec_waiting;
  const std::uint64_t exec = pd.exec;
  const sim::SimTime overhead = pd.overhead;
  // Feedback to the scheduling policy: observed flow-completion time of
  // this task's input transfers (the "congestion" per-helper FCT signal).
  scheduler_->on_inputs_landed(pd.worker, engine_.now() - pd.started);
  prof::free_note(
      prof::AllocTag::CorePending,
      sizeof(PendingData) + pd.flows.capacity() * sizeof(net::FlowId));
  pending_data_.erase(it);
  if (waiting) begin_compute(exec, overhead);
}

void ClusterRuntime::cancel_input_flows(nanos::TaskId id) {
  if (fabric_ == nullptr) return;
  auto it = pending_data_.find(id);
  if (it == pending_data_.end()) return;
  for (const net::FlowId f : it->second.flows) fabric_->cancel(f);
  prof::free_note(prof::AllocTag::CorePending,
                  sizeof(PendingData) +
                      it->second.flows.capacity() * sizeof(net::FlowId));
  pending_data_.erase(it);
}

void ClusterRuntime::on_task_finished(std::uint64_t exec_id) {
  auto itr = running_.find(exec_id);
  assert(itr != running_.end());
  const RunningExec run = itr->second;
  prof::free_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
  running_.erase(itr);
  const WorkerId w = run.worker;
  const int node = run.node;
  const WorkerInfo& info = topology_->worker(w);

  talp_->on_busy_delta(w, -1);
  recorder_->busy_delta(engine_.now(), node, info.apprank, -1);
  node_cores_[static_cast<std::size_t>(node)]->task_finished(run.core);

  if (run.ghost) {
    // Disowned execution (its lease was revoked after a suspicion): it
    // frees its core and reports a completion that names a stale epoch —
    // the home runtime suppresses it. No scheduler state moves here; the
    // task itself was already re-queued elsewhere.
    monitor_->send_completion(run.task, w, run.epoch);
    kick_node(node);
    return;
  }

  nanos::Task& task = pool_.get(run.task);
  task.finish_at = engine_.now();
  sink().exec_end(run.task, engine_.now());
  workers_[static_cast<std::size_t>(w)].inflight -= 1;

  const int apprank = task.apprank;
  const int home = topology_->home_node(apprank);
  recorder_->task_executed(node, home, task.work);
  appranks_[static_cast<std::size_t>(apprank)].locations->task_executed(
      task.accesses, node);

  // Dependency release and taskwait accounting happen on the apprank's
  // home runtime instance; a remote completion needs a control message.
  if (node != home && monitor_ != nullptr) {
    // The completion names its lease epoch so the home runtime can tell a
    // current execution from a zombie's (exactly-once accounting).
    monitor_->send_completion(run.task, w, run.epoch);
  } else if (node != home) {
    ++result_.control_messages;
    ctrl_comm_->send(w, topology_->home_worker(apprank), 0,
                     [this, id = run.task] { complete_task(id); });
  } else {
    complete_task(run.task);
  }

  kick_node(node);
}

void ClusterRuntime::complete_task(nanos::TaskId id) {
  const int apprank = pool_.get(id).apprank;
  ApprankState& state = appranks_[static_cast<std::size_t>(apprank)];
  sink().task_done(id, engine_.now());
  const auto ready = state.deps->on_task_finished(id, engine_.now());
  std::vector<int> touched;
  for (nanos::TaskId r : ready) {
    // on_task_finished left ready_at at this completion and released_by
    // at the predecessor the critical path follows.
    const nanos::Task& rt = pool_.get(r);
    sink().task_ready(r, rt.released_by, engine_.now());
    on_task_ready(r);
    if (rt.state == nanos::TaskState::Scheduled) {
      touched.push_back(rt.scheduled_node);
    }
  }
  assert(state.outstanding > 0);
  if (--state.outstanding == 0) {
    enter_barrier(apprank);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (int n : touched) kick_node(n);
}

void ClusterRuntime::kick_node(int node) {
  dlb::NodeCores& nc = *node_cores_[static_cast<std::size_t>(node)];
  dlb::LewiModule& lw = *lewi_[static_cast<std::size_t>(node)];
  const auto& residents = topology_->workers_on_node(node);

  // Crashed and quarantined workers take no new work: their backlog reads
  // as zero, so they reclaim and borrow nothing and lend what they hold.
  auto backlog_of = [this](WorkerId w) -> int {
    if (!usable(w)) return 0;
    const WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    const ApprankState& st =
        appranks_[static_cast<std::size_t>(topology_->worker(w).apprank)];
    return static_cast<int>(ws.queue.size() + st.central.size()) + ws.pending;
  };

  // Only the crash itself removes a worker from DLB's node-local view
  // (shared memory dies with the process); quarantine is a scheduler-side
  // verdict and must not touch a possibly-alive worker's cores directly.
  auto is_alive = [this](WorkerId w) {
    return alive_[static_cast<std::size_t>(w)] != 0;
  };

  // 1. Owners with backlog reclaim their lent-out cores (§5.3).
  if (lw.enabled()) {
    for (WorkerId w : residents) {
      if (!is_alive(w)) continue;
      const int idle = nc.idle_leased_count(w);
      const int deficit = backlog_of(w) - idle;
      if (deficit > 0) lw.reclaim_for(w, deficit);
    }
  }
  // 2. Run whatever fits on currently leased idle cores.
  for (WorkerId w : residents) dispatch(w);
  // 3. Idle workers lend their remaining cores into the pool.
  if (lw.enabled()) {
    for (WorkerId w : residents) {
      if (is_alive(w) && backlog_of(w) == 0) lw.lend_idle(w);
    }
    // 4. Backlogged workers borrow from the pool.
    for (WorkerId w : residents) {
      if (!is_alive(w)) continue;
      const int idle = nc.idle_leased_count(w);
      const int want = backlog_of(w) - idle;
      if (want > 0) {
        lw.borrow(w, want);
        dispatch(w);
      }
    }
  }
  if (ownership_observer_) ownership_observer_(node, nc);
}

// --- DROM policy loop (§5.4) ---------------------------------------------------

void ClusterRuntime::schedule_policy_tick() {
  const sim::SimTime period = config_.policy == PolicyKind::Local
                                  ? config_.local_period
                                  : config_.global_period;
  policy_event_ = engine_.after(period, [this] { policy_tick(); });
}

void ClusterRuntime::resolve_now() {
  if (!config_.drom_active() || done_) return;
  engine_.cancel(policy_event_);
  policy_event_ = sim::kInvalidEvent;
  policy_tick();
}

void ClusterRuntime::policy_tick() {
  if (done_) return;
  PROF_SCOPE("core.policy_tick");
  if (busy_smoothed_.size() <
      static_cast<std::size_t>(topology_->worker_count())) {
    // First tick, or the topology gained a worker through a rewire.
    busy_smoothed_.resize(static_cast<std::size_t>(topology_->worker_count()),
                          0.0);
  }
  const double s = config_.busy_smoothing;
  std::vector<double> busy(static_cast<std::size_t>(topology_->worker_count()));
  for (int w = 0; w < topology_->worker_count(); ++w) {
    auto& ema = busy_smoothed_[static_cast<std::size_t>(w)];
    if (!usable(w)) {
      // Crashed or quarantined worker: no residual demand must leak into
      // the plans.
      ema = 0.0;
    } else {
      ema = s * ema + (1.0 - s) * talp_->window_average(w);
    }
    busy[static_cast<std::size_t>(w)] = ema;
  }
  talp_->reset_window();

  std::vector<int> node_core_counts;
  node_core_counts.reserve(config_.cluster.nodes.size());
  for (const auto& n : config_.cluster.nodes) node_core_counts.push_back(n.cores);

  // The mask is only passed once a worker is dead or quarantined, so a
  // fault-free run takes exactly the pre-fault code path.
  std::vector<char> usable_mask;
  const std::vector<char>* mask = nullptr;
  if (any_worker_unusable()) {
    usable_mask.resize(static_cast<std::size_t>(topology_->worker_count()));
    for (int w = 0; w < topology_->worker_count(); ++w) {
      usable_mask[static_cast<std::size_t>(w)] = usable(w) ? 1 : 0;
    }
    mask = &usable_mask;
  }

  // Solver fallback chain (tlb::resil): global solve -> local convergence
  // -> static proportional split. Each rung is strictly more robust and
  // strictly less informed than the one above it.
  OwnershipPlan plan;
  int level = config_.policy == PolicyKind::Global ? 0 : 1;
  if (level == 0) {
    try {
      plan = global_solver_plan(*topology_, node_core_counts, busy, mask);
    } catch (const solver::InfeasibleAllocation&) {
      level = 1;
    }
  }
  if (level == 1) {
    try {
      plan = local_convergence_plan(*topology_, node_core_counts, busy, mask);
    } catch (const std::exception&) {
      level = 2;
    }
  }
  if (level == 2) {
    plan = static_ownership_plan(*topology_, node_core_counts, mask);
  }
  if (level != policy_level_) {
    if (level > policy_level_) {
      ++result_.policy_downshifts;
      mark_trace(level == 1 ? "policy downshift: global -> local"
                            : "policy downshift: -> static ownership");
    } else {
      mark_trace("policy restored");
    }
    policy_level_ = level;
  }

  if (config_.policy == PolicyKind::Global && config_.solver_latency > 0.0) {
    engine_.after(config_.solver_latency, [this, plan = std::move(plan)] {
      if (!done_) apply_plan(plan);
    });
  } else {
    apply_plan(plan);
  }
  schedule_policy_tick();
}

void ClusterRuntime::apply_plan(const OwnershipPlan& plan) {
  PROF_SCOPE("core.apply_plan");
  // A plan computed before a crash or suspicion (e.g. held back by
  // solver_latency) may still grant cores to an unusable worker; drop it —
  // the crash/suspicion already triggered a fresh solve.
  for (const auto& node_plan : plan) {
    for (const auto& [w, count] : node_plan) {
      (void)count;
      if (!usable(w)) return;
    }
  }
  for (int n = 0; n < topology_->node_count(); ++n) {
    drom_[static_cast<std::size_t>(n)]->apply(plan[static_cast<std::size_t>(n)]);
  }
  record_ownership();
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);
}

void ClusterRuntime::record_ownership() {
  for (int n = 0; n < topology_->node_count(); ++n) {
    const dlb::NodeCores& nc = *node_cores_[static_cast<std::size_t>(n)];
    for (WorkerId w : topology_->workers_on_node(n)) {
      recorder_->set_owned(engine_.now(), n, topology_->worker(w).apprank,
                           nc.owned_count(w));
    }
    if (ownership_observer_) ownership_observer_(n, nc);
  }
}

// --- perturbation / resilience (tlb::fault) -----------------------------------

bool ClusterRuntime::any_worker_unusable() const {
  for (int w = 0; w < static_cast<int>(alive_.size()); ++w) {
    if (!usable(w)) return true;
  }
  return false;
}

void ClusterRuntime::set_node_speed(int node, double speed) {
  assert(node >= 0 && node < topology_->node_count());
  assert(speed > 0.0);
  node_speed_[static_cast<std::size_t>(node)] = speed;
}

void ClusterRuntime::set_link_fault(const vmpi::LinkFault& fault) {
  link_fault_ = fault;
  ctrl_comm_->set_link_fault(fault);
  // Net mode: the latency/bandwidth multipliers act on the fabric itself
  // (every in-flight flow re-shares the degraded links); loss and jitter
  // stay with the communicator.
  if (fabric_ != nullptr) {
    fabric_->set_global_fault(fault.latency_mult, fault.bandwidth_mult);
  }
}

void ClusterRuntime::mark_trace(std::string_view label, trace::MarkKind kind,
                                std::int64_t value) {
  recorder_->mark(engine_.now(), kind, value, label);
}

void ClusterRuntime::rescue_task(nanos::TaskId id, WorkerId from,
                                 bool charge_worker) {
  nanos::Task& task = pool_.get(id);
  assert(task.state == nanos::TaskState::Scheduled ||
         task.state == nanos::TaskState::Running);
  // Net mode: input flows streaming towards the voided assignment's node
  // are torn down (their bandwidth returns to the surviving flows); the
  // re-assignment below starts fresh ones.
  cancel_input_flows(id);
  if (charge_worker) workers_[static_cast<std::size_t>(from)].inflight -= 1;
  task.state = nanos::TaskState::Ready;
  task.scheduled_node = -1;
  task.data_ready_at = 0.0;
  task.reexecutions += 1;
  ++result_.tasks_reexecuted;
  sink().task_rescued(id, from, engine_.now());
  on_task_ready(id);
}

void ClusterRuntime::crash_worker(WorkerId w) {
  assert(w >= 0 && w < topology_->worker_count());
  const WorkerInfo& info = topology_->worker(w);
  assert(!info.is_home &&
         "only helper ranks may crash; the apprank process is the app");
  if (!alive_[static_cast<std::size_t>(w)] || done_) return;
  alive_[static_cast<std::size_t>(w)] = 0;
  if (monitor_ != nullptr) monitor_->note_crash(w);
  ++result_.workers_crashed;

  const int node = info.node;
  dlb::NodeCores& nc = *node_cores_[static_cast<std::size_t>(node)];

  // 1. Abort the tasks executing on the crashed worker: cancel their
  // completion events, undo busy accounting, free their cores. The ordered
  // exec-id map walks executions in start order, so the re-queue order is
  // identical on every standard-library implementation.
  std::vector<nanos::TaskId> lost;
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->second.worker != w) {
      ++it;
      continue;
    }
    RunningExec& run = it->second;
    engine_.cancel(run.finish_event);
    if (run.busy_applied) {
      talp_->on_busy_delta(w, -1);
      recorder_->busy_delta(engine_.now(), node, info.apprank, -1);
    } else {
      engine_.cancel(run.busy_event);
    }
    nc.task_finished(run.core);
    // Net mode: unhook a parked execution from its pending-data entry so
    // a late flow completion does not resume a dead exec id. (The flows
    // themselves are cancelled when the task is rescued; under Heartbeat
    // detection that happens at lease expiry.)
    auto pd = pending_data_.find(run.task);
    if (pd != pending_data_.end() && pd->second.exec_waiting &&
        pd->second.exec == it->first) {
      pd->second.exec_waiting = false;
    }
    if (!run.ghost) lost.push_back(run.task);
    prof::free_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
    it = running_.erase(it);
  }

  // 2. Tasks assigned but not yet started die with the worker's queue.
  WorkerState& ws = workers_[static_cast<std::size_t>(w)];
  if (monitor_ == nullptr) {
    for (nanos::TaskId id : ws.queue) lost.push_back(id);
  }
  ws.queue.clear();

  // 3. Evict the worker from core ownership: its cores move to the
  // surviving residents (DROM invariant: every core keeps exactly one
  // owner), and cores it had borrowed return to their owners. This is
  // node-local: DLB's shared-memory view sees the process die instantly,
  // independent of any cluster-wide detection.
  std::vector<WorkerId> survivors;
  for (WorkerId r : topology_->workers_on_node(node)) {
    if (alive_[static_cast<std::size_t>(r)]) survivors.push_back(r);
  }
  // Every node hosts an apprank's home worker, which cannot crash.
  assert(!survivors.empty());
  std::size_t rr = 0;
  for (int c = 0; c < nc.core_count(); ++c) {
    if (nc.owner(c) == w) {
      nc.set_owner(c, survivors[rr++ % survivors.size()]);
    } else if (nc.lease(c) == w && !nc.is_running(c)) {
      nc.reclaim(c);
    }
  }
  record_ownership();

  if (monitor_ != nullptr) {
    // Heartbeat detection: the crash is *not* announced to the home
    // runtimes. The worker merely falls silent; its leases stay open
    // (in-flight/pending accounting untouched) until heartbeat silence or
    // lease expiry makes the monitor observe the failure. Only the
    // node-local capacity freed above is re-usable immediately.
    kick_node(node);
    return;
  }

  // Oracle recovery: the failure is known cluster-wide the instant it
  // happens.
  // 4. If the crash disconnected the apprank from every helper, re-wire
  // the expander with a replacement helper before re-queueing.
  maybe_rewire(info.apprank);

  // 5. Re-queue the lost tasks; each is re-executed exactly once (the
  // scheduler never picks a dead worker again). Rescued tasks can land on
  // any adjacent node, so kick them all.
  for (nanos::TaskId id : lost) rescue_task(id, w);
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);

  // 6. Fresh policy solve over the reduced offloading graph, without
  // waiting for the next periodic tick.
  resolve_now();
}

// --- the Heartbeat-mode monitor's host calls (tlb::resil) ---------------------

void ClusterRuntime::void_assignment(nanos::TaskId id, WorkerId w,
                                     std::uint64_t epoch, bool delivered,
                                     bool settled) {
  WorkerState& ws = workers_[static_cast<std::size_t>(w)];
  // The offload never arrived; retire the pre-claimed slot.
  if (!delivered) ws.pending -= 1;
  // Drop the task from the helper's queue if it had not started there.
  ws.queue.erase(std::remove(ws.queue.begin(), ws.queue.end(), id),
                 ws.queue.end());
  // Disown a live execution into a ghost: it keeps burning its core until
  // it finishes, but its completion will name a stale epoch. An execution
  // still parked waiting for its input flows (net mode) is aborted outright
  // instead — rescue_task below cancels those flows, so the ghost could
  // never finish: free its core and erase it.
  for (auto rit = running_.begin(); rit != running_.end();) {
    RunningExec& run = rit->second;
    if (run.task != id || run.worker != w || run.ghost || run.epoch != epoch) {
      ++rit;
      continue;
    }
    auto pd = pending_data_.find(id);
    if (pd != pending_data_.end() && pd->second.exec_waiting &&
        pd->second.exec == rit->first) {
      pd->second.exec_waiting = false;
      node_cores_[static_cast<std::size_t>(run.node)]->task_finished(run.core);
      prof::free_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
      rit = running_.erase(rit);
      continue;
    }
    run.ghost = true;
    ++rit;
  }
  // When the helper already finished (its completion is in flight and will
  // be suppressed), the worker's in-flight accounting was settled at
  // finish time; charging it again would double-count.
  rescue_task(id, w, /*charge_worker=*/!settled);
}

void ClusterRuntime::replan(WorkerId w, resil::Verdict verdict) {
  switch (verdict) {
    case resil::Verdict::Expired:
      kick_node(node_of(w));
      return;
    case resil::Verdict::Suspected:
      // If the suspicion disconnected the apprank from every helper,
      // re-wire; then re-solve over the usable workers and let every node
      // pick up the re-queued work.
      maybe_rewire(topology_->worker(w).apprank);
      resolve_now();
      for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);
      return;
    case resil::Verdict::Readmitted:
      resolve_now();
      return;
  }
}

void ClusterRuntime::maybe_rewire(int apprank) {
  if (done_) return;
  const auto& ws = topology_->workers_of_apprank(apprank);
  if (ws.size() < 2) return;  // degree-1 appranks never offload
  for (WorkerId w : ws) {
    if (!topology_->worker(w).is_home && usable(w)) return;  // still connected
  }

  // Replacement helper on the node with the most spare worker capacity.
  std::vector<int> spare(static_cast<std::size_t>(topology_->node_count()));
  for (int n = 0; n < topology_->node_count(); ++n) {
    spare[static_cast<std::size_t>(n)] =
        config_.cluster.nodes[static_cast<std::size_t>(n)].cores -
        static_cast<int>(topology_->workers_on_node(n).size());
  }
  const int node = graph::pick_replacement_node(expander_.graph, apprank, spare);
  if (node < 0) {
    mark_trace("rewire failed: no node with spare capacity");
    return;
  }

  add_worker(apprank, node);
  ++result_.rewired_edges;
  mark_trace("rewired apprank " + std::to_string(apprank) + " -> node " +
             std::to_string(node));
  // The new worker owns no cores yet; the policy re-solve that follows the
  // crash/suspicion grants it at least one (it is unpickable until then).
}

WorkerId ClusterRuntime::add_worker(int apprank, int node) {
  // Thread the new helper through every layer: graph edge, topology slot,
  // control-plane rank, TALP and monitor state, runtime vectors.
  expander_.graph.add_edge(apprank, node);
  const WorkerId w = topology_->add_worker(apprank, node);
  const vmpi::RankId rank = ctrl_comm_->add_rank(node);
  (void)rank;
  assert(rank == w && "control-plane ranks mirror worker ids");
  talp_->add_worker();
  workers_.emplace_back();
  alive_.push_back(1);
  if (!busy_smoothed_.empty()) busy_smoothed_.push_back(0.0);
  if (monitor_ != nullptr) monitor_->add_worker(w);
  return w;
}

}  // namespace tlb::core
