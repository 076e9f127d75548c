// Tests of the service-traffic subsystem (tlb::svc): arrival-generator
// determinism and sanity per shape, admission primitives (token bucket,
// gradient concurrency limiter, retry budget, class shedding), job-manager
// end-to-end determinism, one queued arrival at a time, the concurrency-cap
// monotonicity contract, the shared-engine equivalence with a standalone
// ClusterRuntime run, and graceful degradation vs the open-queue baseline
// under overload.
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "prof/prof.hpp"
#include "svc/admission.hpp"
#include "svc/arrivals.hpp"
#include "svc/breaker.hpp"
#include "svc/job_manager.hpp"

namespace {

using namespace tlb;

// --- arrival generator -------------------------------------------------------

svc::ArrivalConfig arrival_config(svc::ArrivalShape shape) {
  svc::ArrivalConfig cfg;
  cfg.shape = shape;
  cfg.rate = 8.0;
  cfg.horizon = 50.0;
  return cfg;
}

TEST(Arrivals, SameSeedIsBitIdenticalAcrossAllShapes) {
  for (const auto shape :
       {svc::ArrivalShape::Poisson, svc::ArrivalShape::Bursty,
        svc::ArrivalShape::Diurnal}) {
    svc::ArrivalGenerator a(arrival_config(shape), {3.0, 1.0}, 99);
    svc::ArrivalGenerator b(arrival_config(shape), {3.0, 1.0}, 99);
    const auto seq_a = a.all();
    const auto seq_b = b.all();
    ASSERT_FALSE(seq_a.empty()) << svc::to_string(shape);
    ASSERT_EQ(seq_a.size(), seq_b.size()) << svc::to_string(shape);
    for (std::size_t i = 0; i < seq_a.size(); ++i) {
      // Bitwise, not approximate: the sequence is the experiment's input.
      EXPECT_EQ(seq_a[i].time, seq_b[i].time);
      EXPECT_EQ(seq_a[i].template_index, seq_b[i].template_index);
      EXPECT_EQ(seq_a[i].job_seed, seq_b[i].job_seed);
    }
  }
}

TEST(Arrivals, DifferentSeedsDiverge) {
  svc::ArrivalGenerator a(arrival_config(svc::ArrivalShape::Poisson), {1.0},
                          1);
  svc::ArrivalGenerator b(arrival_config(svc::ArrivalShape::Poisson), {1.0},
                          2);
  const auto seq_a = a.all();
  const auto seq_b = b.all();
  ASSERT_FALSE(seq_a.empty());
  ASSERT_FALSE(seq_b.empty());
  EXPECT_NE(seq_a.front().time, seq_b.front().time);
  EXPECT_NE(seq_a.front().job_seed, seq_b.front().job_seed);
}

TEST(Arrivals, TimesAreMonotoneWithinHorizonAndRoughlyAtRate) {
  for (const auto shape :
       {svc::ArrivalShape::Poisson, svc::ArrivalShape::Bursty,
        svc::ArrivalShape::Diurnal}) {
    svc::ArrivalGenerator gen(arrival_config(shape), {1.0}, 7);
    const auto seq = gen.all();
    double prev = 0.0;
    for (const auto& a : seq) {
      EXPECT_GE(a.time, prev);
      EXPECT_LE(a.time, 50.0);
      EXPECT_EQ(a.template_index, 0);
      prev = a.time;
    }
    // Mean rate 8/s over 50 s => ~400 arrivals; all three shapes share the
    // long-run mean by construction. Loose 3-sigma-ish band.
    EXPECT_GT(seq.size(), 300u) << svc::to_string(shape);
    EXPECT_LT(seq.size(), 520u) << svc::to_string(shape);
  }
}

TEST(Arrivals, JobSeedsAreDistinct) {
  svc::ArrivalGenerator gen(arrival_config(svc::ArrivalShape::Poisson), {1.0},
                            7);
  const auto seq = gen.all();
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_NE(seq[i].job_seed, seq[i - 1].job_seed);
  }
}

TEST(Arrivals, MaxArrivalsCapsTheSequence) {
  svc::ArrivalConfig cfg = arrival_config(svc::ArrivalShape::Poisson);
  cfg.max_arrivals = 5;
  svc::ArrivalGenerator gen(cfg, {1.0}, 7);
  EXPECT_EQ(gen.all().size(), 5u);
  EXPECT_EQ(gen.next(), std::nullopt);
}

TEST(Arrivals, RejectsInvalidConfigs) {
  EXPECT_THROW(
      svc::ArrivalGenerator(arrival_config(svc::ArrivalShape::Poisson), {}, 1),
      std::invalid_argument);
  EXPECT_THROW(svc::ArrivalGenerator(
                   arrival_config(svc::ArrivalShape::Poisson), {0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(svc::ArrivalGenerator(
                   arrival_config(svc::ArrivalShape::Poisson), {-1.0}, 1),
               std::invalid_argument);
  svc::ArrivalConfig bad_rate = arrival_config(svc::ArrivalShape::Poisson);
  bad_rate.rate = 0.0;
  EXPECT_THROW(svc::ArrivalGenerator(bad_rate, {1.0}, 1),
               std::invalid_argument);
  svc::ArrivalConfig bad_amp = arrival_config(svc::ArrivalShape::Diurnal);
  bad_amp.diurnal_amplitude = 1.0;
  EXPECT_THROW(svc::ArrivalGenerator(bad_amp, {1.0}, 1),
               std::invalid_argument);
  svc::ArrivalConfig bad_burst = arrival_config(svc::ArrivalShape::Bursty);
  bad_burst.burst_fraction = 1.0;
  EXPECT_THROW(svc::ArrivalGenerator(bad_burst, {1.0}, 1),
               std::invalid_argument);
}

TEST(Arrivals, ShapeNamesRoundTrip) {
  EXPECT_EQ(svc::parse_arrival_shape("poisson"), svc::ArrivalShape::Poisson);
  EXPECT_EQ(svc::parse_arrival_shape("bursty"), svc::ArrivalShape::Bursty);
  EXPECT_EQ(svc::parse_arrival_shape("diurnal"), svc::ArrivalShape::Diurnal);
  EXPECT_THROW((void)svc::parse_arrival_shape("weekly"),
               std::invalid_argument);
}

// --- admission primitives ----------------------------------------------------

TEST(TokenBucket, RefillsAtRateUpToBurst) {
  svc::TokenBucket bucket(2.0, 2.0);  // 2 tokens/s, burst 2
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0));   // empty
  EXPECT_FALSE(bucket.try_take(0.25));  // only 0.5 tokens back
  EXPECT_TRUE(bucket.try_take(0.6));    // 1.2 tokens accumulated
  // Long idle caps at the burst, not rate * dt.
  EXPECT_NEAR(bucket.available(100.0), 2.0, 1e-12);
}

TEST(TokenBucket, ZeroRateMeansUnlimited) {
  svc::TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0.0));
}

svc::AdmissionConfig limiter_config() {
  svc::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.initial_limit = 8;
  cfg.min_limit = 2;
  cfg.max_limit = 32;
  cfg.tolerance = 2.0;
  cfg.update_window = 4;
  return cfg;
}

TEST(GradientLimiter, GrowsOnHealthyLatencyShrinksOnInflation) {
  svc::GradientLimiter healthy(limiter_config());
  for (int i = 0; i < 16; ++i) healthy.record(0.1);
  EXPECT_EQ(healthy.updates(), 4);
  EXPECT_GT(healthy.limit(), 8);  // gradient ~2 + sqrt headroom

  svc::GradientLimiter congested(limiter_config());
  congested.record(0.1);  // establishes the floor
  for (int i = 0; i < 24; ++i) congested.record(2.0);  // 20x the floor
  EXPECT_EQ(congested.limit(), 2);  // pinned at min_limit
}

TEST(GradientLimiter, LimitStaysWithinBounds) {
  svc::GradientLimiter lim(limiter_config());
  for (int i = 0; i < 200; ++i) lim.record(0.05);
  EXPECT_LE(lim.limit(), 32);
  for (int i = 0; i < 200; ++i) lim.record(50.0);
  EXPECT_GE(lim.limit(), 2);
}

TEST(RetryBudget, CapsActiveRetriesAtRatioPlusBase) {
  svc::RetryBudget budget(0.5, 1);  // allow 0.5 * in_flight + 1
  EXPECT_TRUE(budget.try_start(2));   // budget 2, active 0 -> 1
  EXPECT_TRUE(budget.try_start(2));   // active 1 -> 2
  EXPECT_FALSE(budget.try_start(2));  // active 2 >= budget 2
  EXPECT_EQ(budget.exhausted(), 1u);
  budget.settle();
  EXPECT_TRUE(budget.try_start(2));
  EXPECT_EQ(budget.active(), 2);
}

TEST(AdmissionController, ClassCapsOrderAndFloor) {
  svc::AdmissionConfig cfg = limiter_config();
  cfg.class_fractions = {1.0, 0.5, 0.25};
  svc::AdmissionController ctl(cfg);
  EXPECT_EQ(ctl.class_cap(0), 8);
  EXPECT_EQ(ctl.class_cap(1), 4);
  EXPECT_EQ(ctl.class_cap(2), 2);
  EXPECT_EQ(ctl.class_cap(9), 2);  // inherits the last fraction
  EXPECT_GE(ctl.class_cap(0), ctl.class_cap(1));
  EXPECT_GE(ctl.class_cap(1), ctl.class_cap(2));

  EXPECT_EQ(ctl.decide(2, 1, 0.0), svc::AdmitVerdict::Admit);
  EXPECT_EQ(ctl.decide(2, 2, 0.0), svc::AdmitVerdict::ShedLimit);
  EXPECT_EQ(ctl.decide(0, 2, 0.0), svc::AdmitVerdict::Admit);
}

TEST(AdmissionController, ClassZeroAlwaysKeepsOneSlot) {
  svc::AdmissionConfig cfg = limiter_config();
  cfg.class_fractions = {0.01};
  svc::AdmissionController ctl(cfg);
  EXPECT_EQ(ctl.class_cap(0), 1);
  EXPECT_EQ(ctl.class_cap(1), 0);
}

TEST(AdmissionController, BucketGatesBeforeTheLimit) {
  svc::AdmissionConfig cfg = limiter_config();
  cfg.bucket_rate = 1.0;
  cfg.bucket_burst = 1.0;
  svc::AdmissionController ctl(cfg);
  EXPECT_EQ(ctl.decide(0, 0, 0.0), svc::AdmitVerdict::Admit);
  EXPECT_EQ(ctl.decide(0, 0, 0.0), svc::AdmitVerdict::ShedBucket);
  EXPECT_EQ(ctl.decide(0, 0, 1.0), svc::AdmitVerdict::Admit);
}

// --- job manager -------------------------------------------------------------

core::RuntimeConfig service_config(double rate, double horizon,
                                   bool admission) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 4);
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = 1234;
  cfg.record_traces = false;
  cfg.svc.enabled = true;
  cfg.svc.arrivals.rate = rate;
  cfg.svc.arrivals.horizon = horizon;
  svc::JobTemplate tpl;
  tpl.nodes = 2;
  tpl.degree = 2;
  tpl.iterations = 2;
  tpl.tasks_per_rank = 16;
  tpl.base_duration = 0.050;
  tpl.imbalance = 1.5;
  tpl.deadline_class = 0;
  tpl.deadline = 0.8;
  cfg.svc.templates = {tpl};
  cfg.svc.admission.enabled = admission;
  cfg.svc.admission.initial_limit = 3;
  cfg.svc.admission.min_limit = 1;
  cfg.svc.admission.max_limit = 4;
  cfg.svc.admission.update_window = 4;
  return cfg;
}

TEST(JobManager, RejectsBadConfigs) {
  core::RuntimeConfig disabled = service_config(2.0, 1.0, false);
  disabled.svc.enabled = false;
  EXPECT_THROW(svc::JobManager{disabled}, std::invalid_argument);

  core::RuntimeConfig empty = service_config(2.0, 1.0, false);
  empty.svc.templates.clear();
  EXPECT_THROW(svc::JobManager{empty}, std::invalid_argument);

  core::RuntimeConfig oversized = service_config(2.0, 1.0, false);
  oversized.svc.templates[0].nodes = 64;  // cluster only has 4
  EXPECT_THROW(svc::JobManager{oversized}, std::invalid_argument);
}

TEST(JobManager, RunIsOneShot) {
  svc::JobManager mgr(service_config(2.0, 0.5, false));
  mgr.run();
  EXPECT_THROW(mgr.run(), std::logic_error);
}

TEST(JobManager, EndToEndDeterminism) {
  svc::JobManager a(service_config(4.0, 2.0, true));
  svc::JobManager b(service_config(4.0, 2.0, true));
  const svc::SvcResult ra = a.run();
  const svc::SvcResult rb = b.run();
  EXPECT_EQ(ra.arrived, rb.arrived);
  EXPECT_EQ(ra.admitted, rb.admitted);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.shed, rb.shed);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_EQ(ra.slo_met, rb.slo_met);
  EXPECT_EQ(ra.engine_events, rb.engine_events);
  // Bitwise on the derived doubles too: the whole simulation replays.
  EXPECT_EQ(ra.elapsed, rb.elapsed);
  EXPECT_EQ(ra.latency_p99, rb.latency_p99);
  EXPECT_EQ(ra.goodput, rb.goodput);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].arrival, b.jobs()[i].arrival);
    EXPECT_EQ(a.jobs()[i].started, b.jobs()[i].started);
    EXPECT_EQ(a.jobs()[i].finished, b.jobs()[i].finished);
    EXPECT_EQ(a.jobs()[i].outcome, b.jobs()[i].outcome);
  }
}

TEST(JobManager, RecordsAreConsistent) {
  svc::JobManager mgr(service_config(4.0, 2.0, true));
  const svc::SvcResult r = mgr.run();
  ASSERT_GT(r.arrived, 0u);
  EXPECT_EQ(r.arrived, static_cast<std::uint64_t>(mgr.jobs().size()));
  EXPECT_EQ(r.completed + r.shed, r.arrived);  // nothing left pending
  std::uint64_t completed = 0;
  for (const auto& rec : mgr.jobs()) {
    ASSERT_NE(rec.outcome, svc::JobOutcome::Pending);
    if (rec.outcome == svc::JobOutcome::Completed) {
      ++completed;
      EXPECT_GE(rec.started, rec.arrival);
      EXPECT_GT(rec.finished, rec.started);
      EXPECT_EQ(rec.slo_met, rec.latency() <= rec.deadline);
    } else {
      EXPECT_LT(rec.started, 0.0);  // shed jobs never launched
    }
  }
  EXPECT_EQ(completed, r.completed);
}

// The arrival sequence is fixed up front but queued one event at a time,
// so the event queue's peak follows the work in flight, not the offered
// arrival count: a horizon four times longer keeps the sim.event peak
// within 25% of the short run's.
TEST(JobManager, EventPeakDoesNotGrowWithTheArrivalCount) {
  prof::Profiler& profiler = prof::Profiler::instance();
  struct Sample {
    std::uint64_t arrived = 0;
    std::int64_t peak = 0;
  };
  const auto run = [&profiler](double horizon) {
    profiler.disable();
    profiler.reset();
    core::RuntimeConfig cfg = service_config(20.0, horizon, true);
    cfg.prof.enabled = true;
    Sample s;
    {
      svc::JobManager mgr(cfg);
      s.arrived = mgr.run().arrived;
    }
    for (const prof::TagStats& t : profiler.alloc_stats()) {
      if (std::string_view(t.tag) == "sim.event") s.peak = t.peak_bytes;
    }
    profiler.disable();
    profiler.reset();
    return s;
  };
  const Sample short_run = run(2.0);
  const Sample long_run = run(8.0);
  ASSERT_GT(long_run.arrived, 3 * short_run.arrived);
  ASSERT_GT(short_run.peak, 0);
  EXPECT_LE(static_cast<double>(long_run.peak),
            1.25 * static_cast<double>(short_run.peak));
}

// One job through the shared-engine path must behave like the same
// execution on a standalone runtime: the job starts mid-simulation at its
// arrival time, so its service duration (not its absolute timestamps)
// must match the standalone makespan.
TEST(JobManager, SharedEngineMatchesStandaloneRuntime) {
  core::RuntimeConfig cfg = service_config(1.0, 10.0, false);
  cfg.svc.arrivals.max_arrivals = 1;
  svc::JobManager mgr(cfg);
  const svc::SvcResult r = mgr.run();
  ASSERT_EQ(r.completed, 1u);
  const svc::JobRecord& rec = mgr.jobs().front();

  core::RuntimeConfig solo;
  solo.cluster = sim::ClusterSpec::homogeneous(2, 4);  // the partition
  solo.policy = cfg.policy;
  solo.appranks_per_node = 1;
  solo.degree = 2;
  solo.seed = rec.job_seed;
  solo.record_traces = false;
  apps::SyntheticConfig wcfg;
  wcfg.appranks = 2;
  wcfg.iterations = 2;
  wcfg.tasks_per_rank = 16;
  wcfg.base_duration = 0.050;
  wcfg.imbalance = 1.5;
  apps::SyntheticWorkload wl(wcfg);
  const core::RunResult solo_r = core::ClusterRuntime(solo).run(wl);

  // Same event sequence, but shifted by the arrival time: double addition
  // is not exactly translation-invariant, so compare to tight tolerance
  // rather than bitwise.
  EXPECT_NEAR(rec.service(), solo_r.makespan, 1e-9);
  EXPECT_GT(rec.arrival, 0.0);
  EXPECT_DOUBLE_EQ(rec.started, rec.arrival);  // free cluster: no wait
}

// Raising a pinned concurrency cap must never lower goodput. The scenario
// is built so this is a true invariant, not a queueing accident: caps
// never exceed the partition count (admitted jobs start immediately, so
// service times are decision-independent) and deadlines are generous
// (every completed job counts). The system is then a pure loss system,
// where admission sets grow with the cap.
TEST(JobManager, PinnedConcurrencyCapIsMonotoneInGoodput) {
  double prev_goodput = -1.0;
  for (int cap = 1; cap <= 4; ++cap) {
    core::RuntimeConfig cfg;
    cfg.cluster = sim::ClusterSpec::homogeneous(8, 4);
    cfg.policy = core::PolicyKind::Global;
    cfg.seed = 77;
    cfg.record_traces = false;
    cfg.svc.enabled = true;
    cfg.svc.arrivals.rate = 6.0;
    cfg.svc.arrivals.horizon = 3.0;
    svc::JobTemplate tpl;
    tpl.nodes = 2;
    tpl.degree = 2;
    tpl.iterations = 1;
    tpl.tasks_per_rank = 8;
    tpl.base_duration = 0.020;
    tpl.imbalance = 1.2;
    tpl.deadline_class = 0;
    tpl.deadline = 100.0;  // every completion meets the SLO
    cfg.svc.templates = {tpl};
    auto& adm = cfg.svc.admission;
    adm.enabled = true;
    adm.initial_limit = cap;
    adm.min_limit = 1;
    adm.max_limit = cap;
    adm.update_window = 1 << 20;  // the gradient never fires: cap pinned
    adm.retry_max = 0;            // a shed arrival is lost, not retried
    adm.bucket_rate = 0.0;

    svc::JobManager mgr(cfg);
    const svc::SvcResult r = mgr.run();
    EXPECT_EQ(r.final_limit, cap);
    EXPECT_EQ(r.completed, r.slo_met);
    EXPECT_GE(r.goodput, prev_goodput)
        << "goodput dropped when the cap rose to " << cap;
    prev_goodput = r.goodput;
  }
  EXPECT_GT(prev_goodput, 0.0);
}

// The fig15 claim in miniature: past saturation, the admission arm sheds
// early and keeps goodput above the open queue, whose backlog pushes
// every late arrival over its deadline.
TEST(JobManager, AdmissionBeatsOpenQueueUnderOverload) {
  const double rate = 14.0;  // ~1.75x the ~8 jobs/s this cluster sustains
  svc::JobManager open(service_config(rate, 3.0, false));
  svc::JobManager controlled(service_config(rate, 3.0, true));
  const svc::SvcResult off = open.run();
  const svc::SvcResult on = controlled.run();
  ASSERT_EQ(off.arrived, on.arrived);  // identical offered traffic
  EXPECT_EQ(off.shed, 0u);             // the open queue never sheds...
  EXPECT_GT(on.shed, 0u);              // ...overload control does
  EXPECT_GT(on.goodput, off.goodput);
  // Bounded tail vs the collapsing queue.
  EXPECT_LT(on.latency_p99, off.latency_p99);
  // Shedding also drains the simulation sooner than the full backlog.
  EXPECT_LE(on.elapsed, off.elapsed + 1e-9);
}

TEST(JobManager, FabricPressureDeratesCoRunningJobs) {
  // With heavy per-task payloads on a thin link, derating the bandwidth of
  // co-running jobs must show up as longer services than unpressured runs.
  auto run_with_pressure = [](double pressure) {
    core::RuntimeConfig cfg = service_config(6.0, 2.0, false);
    cfg.cluster.link.bandwidth = 1e8;
    cfg.svc.templates[0].bytes_per_task = 4u << 20;
    cfg.svc.fabric_pressure = pressure;
    svc::JobManager mgr(cfg);
    return mgr.run().service_mean;
  };
  EXPECT_GT(run_with_pressure(2.0), run_with_pressure(0.0));
}

// --- trace arrivals (JSONL record / replay) ----------------------------------

TEST(TraceArrivals, DumpParseRoundTripIsBitIdentical) {
  svc::ArrivalConfig cfg = arrival_config(svc::ArrivalShape::Diurnal);
  svc::ArrivalGenerator gen(cfg, {3.0, 1.0}, 2024);
  const std::vector<svc::Arrival> original = gen.all();
  ASSERT_FALSE(original.empty());

  const std::string jsonl = svc::dump_arrivals_jsonl(original);
  const std::vector<svc::Arrival> parsed = svc::parse_arrivals_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    // Bitwise: %.17g round-trips every IEEE-754 binary64 exactly.
    EXPECT_EQ(parsed[i].time, original[i].time) << "arrival " << i;
    EXPECT_EQ(parsed[i].template_index, original[i].template_index);
    EXPECT_EQ(parsed[i].job_seed, original[i].job_seed);
  }
  // dump(parse(dump(x))) is a fixed point, so the file format is stable.
  EXPECT_EQ(svc::dump_arrivals_jsonl(parsed), jsonl);
}

TEST(TraceArrivals, ReplayEmitsTheRecordedSequence) {
  svc::ArrivalConfig record_cfg = arrival_config(svc::ArrivalShape::Bursty);
  svc::ArrivalGenerator recorder(record_cfg, {2.0, 1.0}, 7);
  const std::vector<svc::Arrival> original = recorder.all();
  ASSERT_FALSE(original.empty());

  svc::ArrivalConfig replay_cfg = arrival_config(svc::ArrivalShape::Trace);
  replay_cfg.trace = original;
  // A different seed must not matter: replay reads the trace, not the RNG.
  svc::ArrivalGenerator replayer(replay_cfg, {2.0, 1.0}, 99999);
  const std::vector<svc::Arrival> replayed = replayer.all();
  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(replayed[i].time, original[i].time);
    EXPECT_EQ(replayed[i].template_index, original[i].template_index);
    EXPECT_EQ(replayed[i].job_seed, original[i].job_seed);
  }
}

TEST(TraceArrivals, ReplayHonorsHorizonAndMaxArrivals) {
  svc::ArrivalConfig cfg = arrival_config(svc::ArrivalShape::Trace);
  cfg.horizon = 1.5;
  cfg.trace = {{0.5, 0, 11}, {1.0, 0, 22}, {2.0, 0, 33}};
  svc::ArrivalGenerator gen(cfg, {1.0}, 1);
  EXPECT_EQ(gen.all().size(), 2u);  // the 2.0 s arrival is past the horizon

  cfg.horizon = 50.0;
  cfg.max_arrivals = 1;
  svc::ArrivalGenerator capped(cfg, {1.0}, 1);
  EXPECT_EQ(capped.all().size(), 1u);
}

TEST(TraceArrivals, RejectsMalformedTraces) {
  svc::ArrivalConfig cfg = arrival_config(svc::ArrivalShape::Trace);
  cfg.trace = {{1.0, 0, 1}, {0.5, 0, 2}};  // non-monotone times
  EXPECT_THROW(svc::ArrivalGenerator(cfg, {1.0}, 1), std::invalid_argument);
  cfg.trace = {{0.5, 3, 1}};  // template index out of range
  EXPECT_THROW(svc::ArrivalGenerator(cfg, {1.0}, 1), std::invalid_argument);
}

TEST(TraceArrivals, ParserRejectsMalformedJsonlNamingTheLine) {
  try {
    (void)svc::parse_arrivals_jsonl(
        "{\"time\":1,\"template\":0,\"seed\":1}\n"
        "{\"time\":oops,\"template\":0,\"seed\":2}\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TraceArrivals, ShapeNameRoundTrips) {
  EXPECT_EQ(svc::parse_arrival_shape("trace"), svc::ArrivalShape::Trace);
  EXPECT_STREQ(svc::to_string(svc::ArrivalShape::Trace), "trace");
}

// --- circuit breaker ---------------------------------------------------------

svc::BreakerConfig breaker_config() {
  svc::BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failure_threshold = 3;
  cfg.open_duration = 2.0;
  cfg.backoff_factor = 2.0;
  cfg.max_open_duration = 8.0;
  cfg.half_open_successes = 1;
  return cfg;
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  svc::CircuitBreaker br(breaker_config());
  EXPECT_TRUE(br.allow(0.0));
  br.on_failure(0.1);
  br.on_failure(0.2);
  EXPECT_EQ(br.state(), svc::BreakerState::Closed);
  br.on_failure(0.3);
  EXPECT_EQ(br.state(), svc::BreakerState::Open);
  EXPECT_EQ(br.trips(), 1u);
  EXPECT_FALSE(br.allow(0.5));  // open until 0.3 + 2.0
  EXPECT_FALSE(br.allow(2.2));
  EXPECT_EQ(br.shed(), 2u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  svc::CircuitBreaker br(breaker_config());
  br.on_failure(0.1);
  br.on_failure(0.2);
  br.on_success(0.3);  // streak broken: the threshold is consecutive misses
  br.on_failure(0.4);
  br.on_failure(0.5);
  EXPECT_EQ(br.state(), svc::BreakerState::Closed);
  br.on_failure(0.6);
  EXPECT_EQ(br.state(), svc::BreakerState::Open);
}

TEST(CircuitBreaker, HalfOpenAllowsExactlyOneProbe) {
  svc::CircuitBreaker br(breaker_config());
  for (int i = 0; i < 3; ++i) br.on_failure(0.1);
  ASSERT_EQ(br.state(), svc::BreakerState::Open);  // until 2.1
  EXPECT_TRUE(br.allow(2.2));  // the probe
  EXPECT_EQ(br.state(), svc::BreakerState::HalfOpen);
  EXPECT_FALSE(br.allow(2.3));  // shed while the probe is in flight
  br.on_success(2.4);           // half_open_successes = 1 closes
  EXPECT_EQ(br.state(), svc::BreakerState::Closed);
  EXPECT_TRUE(br.allow(2.5));
}

TEST(CircuitBreaker, ProbeFailureEscalatesBackoffUpToTheCap) {
  svc::CircuitBreaker br(breaker_config());
  for (int i = 0; i < 3; ++i) br.on_failure(0.0);
  // Trip 1: open 2.0 s. Probe at 2.0 fails -> trip 2: open 4.0 s.
  EXPECT_TRUE(br.allow(2.0));
  br.on_failure(2.0);
  EXPECT_FALSE(br.allow(5.9));
  // Trip 3: 8.0 s (2 * 2^2). Trip 4 would be 16 but caps at 8.
  EXPECT_TRUE(br.allow(6.0));
  br.on_failure(6.0);
  EXPECT_FALSE(br.allow(13.9));
  EXPECT_TRUE(br.allow(14.0));
  br.on_failure(14.0);
  EXPECT_FALSE(br.allow(21.9));  // capped: 14 + 8, not 14 + 16
  EXPECT_TRUE(br.allow(22.0));
  EXPECT_EQ(br.trips(), 4u);
}

TEST(CircuitBreaker, ProbeShedReArmsWithoutEscalation) {
  svc::CircuitBreaker br(breaker_config());
  for (int i = 0; i < 3; ++i) br.on_failure(0.0);
  EXPECT_TRUE(br.allow(2.0));  // probe admitted by the breaker...
  ASSERT_EQ(br.state(), svc::BreakerState::HalfOpen);
  // ...but the admission controller sheds it: backpressure, not tenant
  // evidence, so the open window re-arms at the *unescalated* duration.
  br.on_probe_shed(2.0);
  EXPECT_EQ(br.state(), svc::BreakerState::Open);
  EXPECT_EQ(br.trips(), 1u);      // no new trip
  EXPECT_FALSE(br.allow(3.9));    // 2.0 + 2.0, not 2.0 + 4.0
  EXPECT_TRUE(br.allow(4.0));
}

TEST(CircuitBreaker, TracksCumulativeOpenTime) {
  svc::CircuitBreaker br(breaker_config());
  EXPECT_DOUBLE_EQ(br.open_time(5.0), 0.0);
  for (int i = 0; i < 3; ++i) br.on_failure(1.0);
  EXPECT_DOUBLE_EQ(br.open_time(2.5), 1.5);  // still open: live interval
  EXPECT_TRUE(br.allow(3.0));                // probe
  br.on_success(3.5);                        // closed at 3.5
  EXPECT_DOUBLE_EQ(br.open_time(10.0), 2.5);  // 1.0 .. 3.5, then closed
}

TEST(CircuitBreaker, RejectsInvalidConfigs) {
  auto bad = breaker_config();
  bad.failure_threshold = 0;
  EXPECT_THROW(svc::CircuitBreaker{bad}, std::invalid_argument);
  bad = breaker_config();
  bad.open_duration = 0.0;
  EXPECT_THROW(svc::CircuitBreaker{bad}, std::invalid_argument);
  bad = breaker_config();
  bad.backoff_factor = 0.5;
  EXPECT_THROW(svc::CircuitBreaker{bad}, std::invalid_argument);
  bad = breaker_config();
  bad.max_open_duration = 1.0;  // < open_duration
  EXPECT_THROW(svc::CircuitBreaker{bad}, std::invalid_argument);
  bad = breaker_config();
  bad.half_open_successes = 0;
  EXPECT_THROW(svc::CircuitBreaker{bad}, std::invalid_argument);
}

// --- breaker / job-manager integration ---------------------------------------

TEST(JobManager, BreakerIsolatesARogueTenant) {
  core::RuntimeConfig cfg = service_config(6.0, 4.0, false);
  cfg.svc.templates[0].deadline = 10.0;  // healthy tenant: generous SLO
  svc::JobTemplate rogue = cfg.svc.templates[0];
  rogue.deadline = 1e-3;  // impossible: every completion misses its SLO
  rogue.weight = 1.0;
  cfg.svc.templates.push_back(rogue);
  cfg.svc.breaker.enabled = true;
  cfg.svc.breaker.failure_threshold = 2;
  cfg.svc.breaker.open_duration = 1.0;

  svc::JobManager mgr(cfg);
  const svc::SvcResult r = mgr.run();

  ASSERT_EQ(r.tenants.size(), 2u);
  const svc::SvcTenantRow& healthy = r.tenants[0];
  const svc::SvcTenantRow& rogue_row = r.tenants[1];
  // The rogue trips its own breaker and gets shed; the healthy tenant's
  // breaker never opens and its jobs keep completing.
  EXPECT_GT(rogue_row.breaker_trips, 0u);
  EXPECT_GT(rogue_row.shed_breaker, 0u);
  EXPECT_GT(rogue_row.breaker_open_time_s, 0.0);
  EXPECT_EQ(healthy.breaker_trips, 0u);
  EXPECT_EQ(healthy.shed_breaker, 0u);
  EXPECT_GT(healthy.completed, 0u);
  // Aggregates are the per-tenant sums.
  EXPECT_EQ(r.shed_breaker, rogue_row.shed_breaker);
  EXPECT_EQ(r.breaker_trips, rogue_row.breaker_trips);
  // Breaker sheds are terminal (no retry) and never launched.
  for (const auto& rec : mgr.jobs()) {
    if (rec.outcome == svc::JobOutcome::ShedBreaker) {
      EXPECT_LT(rec.started, 0.0);
      EXPECT_EQ(rec.retries, 0);
    }
  }
}

TEST(JobManager, BreakerDisabledLeavesNoBreakerState) {
  svc::JobManager mgr(service_config(2.0, 1.0, false));
  EXPECT_TRUE(mgr.breakers().empty());
  const svc::SvcResult r = mgr.run();
  EXPECT_EQ(r.shed_breaker, 0u);
  EXPECT_EQ(r.breaker_trips, 0u);
  EXPECT_DOUBLE_EQ(r.breaker_open_time_s, 0.0);
}

}  // namespace
