// Host-side engine self-profiler: wall-time attribution, per-subsystem
// allocation accounting, and periodic engine health snapshots.
//
// Everything in src/obs and src/stream measures *simulated* time; this
// library measures the simulator itself — where host wall-clock goes
// (event-queue pop/dispatch, the max-min fair-share re-solve, scheduler
// decisions, telemetry writes) and which subsystem owns the resident-set
// growth per task. It is the instrument behind ROADMAP item 1 ("engine
// scale-out, round 2"): numbers like ">95% of wall time is the re-solve"
// and "~2.5 KB/task RSS" become reproducible report fields instead of
// one-off printfs.
//
// Contract:
//  * Record-only. The profiler never posts engine events, never reads the
//    RNG, and nothing downstream reads its counters to make a decision.
//    Golden schedule fingerprints are bit-identical on vs off.
//  * Zero overhead when off. Every hook — PROF_SCOPE, alloc_note,
//    free_note, the engine's snapshot cadence — first checks one plain
//    (non-atomic) global bool and does nothing else on the disabled path:
//    no clock reads, no atomic RMW, no allocation. The engine is
//    single-threaded, so plain counters are also sufficient when on.
//  * Bounded memory. The phase tree has one node per distinct call path
//    (a handful), allocation accounting is a fixed array, and snapshots
//    self-thin (stride doubles) once the buffer fills.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tlb::prof {

// ---------------------------------------------------------------------------
// Allocation tags: one per container family that accretes per-task /
// per-flow / per-span state. alloc_note/free_note must be paired so the
// alive count balances to zero after teardown (asserted by prof_test).
// ---------------------------------------------------------------------------

enum class AllocTag : int {
  SimEvent = 0,   ///< sim::EventQueue heap/bucket entries
  NanosTask,      ///< nanos::TaskPool tasks + their access vectors
  NetFlow,        ///< net::Fabric in-flight flow records
  ObsSpan,        ///< obs::SpanCollector / stream::StreamSink span state
  CoreExec,       ///< core runtime per-execution bookkeeping (running_)
  CorePending,    ///< core runtime pending input-transfer records
  Count,
};
inline constexpr int kAllocTagCount = static_cast<int>(AllocTag::Count);

[[nodiscard]] const char* alloc_tag_name(AllocTag tag);

namespace detail {
// Plain globals, deliberately not atomics: the fast path of every hook is
// `if (!g_enabled) return;` and the engine is single-threaded. Kept in a
// detail namespace so the inline hooks below can reach them.
extern bool g_enabled;

struct TagCounters {
  std::int64_t alive_bytes = 0;
  std::int64_t peak_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};
extern TagCounters g_alloc[kAllocTagCount];
}  // namespace detail

/// Master switch, read by every hook. Compiles to one load + branch.
[[nodiscard]] inline bool enabled() { return detail::g_enabled; }

/// Charge `bytes` to a subsystem tag. Callers pass an *estimate from
/// sizeof* (container value type + payload vectors), not malloc truth —
/// the point is attribution by owner, and the same formula must be used
/// by the matching free_note so the alive count returns to zero.
inline void alloc_note(AllocTag tag, std::size_t bytes) {
  if (!detail::g_enabled) return;
  auto& c = detail::g_alloc[static_cast<int>(tag)];
  c.alive_bytes += static_cast<std::int64_t>(bytes);
  ++c.allocs;
  if (c.alive_bytes > c.peak_bytes) c.peak_bytes = c.alive_bytes;
}

inline void free_note(AllocTag tag, std::size_t bytes) {
  if (!detail::g_enabled) return;
  auto& c = detail::g_alloc[static_cast<int>(tag)];
  c.alive_bytes -= static_cast<std::int64_t>(bytes);
  ++c.frees;
}

// ---------------------------------------------------------------------------
// Phase tree
// ---------------------------------------------------------------------------

struct PhaseNode {
  const char* name = nullptr;  ///< static string from the PROF_SCOPE site
  int parent = -1;             ///< index into the tree; -1 = root level
  std::vector<int> children;
  std::uint64_t calls = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t child_ns = 0;  ///< total inclusive time of direct children

  /// Self time. Children close before their parent (RAII nesting), so
  /// child_ns <= inclusive_ns always holds once the node is closed.
  [[nodiscard]] std::uint64_t exclusive_ns() const {
    return inclusive_ns >= child_ns ? inclusive_ns - child_ns : 0;
  }
};

struct TagStats {
  const char* tag = nullptr;
  std::int64_t alive_bytes = 0;
  std::int64_t peak_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

/// One periodic engine health sample (host wall-clock domain).
struct HealthSnapshot {
  double wall_s = 0.0;             ///< seconds since enable()/reset()
  std::uint64_t events_fired = 0;  ///< engine cumulative fired counter
  double events_per_sec = 0.0;     ///< windowed rate since prior snapshot
  std::uint64_t queue_depth = 0;   ///< pending events at sample time
  double rss_mb = 0.0;             ///< VmRSS at sample time (0 off-Linux)
  double rss_hwm_mb = 0.0;         ///< VmHWM high-water mark
  std::int64_t open_spans = -1;    ///< telemetry gauge; -1 = no gauge
  std::uint64_t attributed_ns = 0; ///< sum of root-phase inclusive time
  std::uint64_t solve_ns = 0;      ///< total "net.solve" inclusive time
};

class Profiler {
 public:
  static Profiler& instance();

  /// Turn profiling on (idempotent) and set the snapshot cadence. Does
  /// not clear previously recorded data; call reset() to start a fresh
  /// measurement window.
  void enable(std::uint64_t snapshot_every_events = 8192);
  void disable();

  /// Drop all recorded state (phase tree, alloc counters, snapshots,
  /// gauge registrations stay) and restart the wall clock. Call between
  /// measurement windows when no instrumented containers are alive,
  /// otherwise alloc alive counts lose their baseline.
  void reset();

  // -- phase tree (driven by ScopedPhase) ---------------------------------
  int enter(const char* name);
  void leave(int node, std::uint64_t duration_ns);

  // -- engine health snapshots --------------------------------------------
  /// Record one snapshot; called by the engine loop every `stride` fired
  /// events. Returns the (possibly doubled) stride to use next.
  std::uint64_t sample(std::uint64_t events_fired, std::size_t queue_depth);
  [[nodiscard]] std::uint64_t snapshot_stride() const { return stride_; }

  /// Telemetry open-span gauge (registered by the runtime when
  /// RuntimeConfig::prof.enabled; cleared in its destructor so the
  /// callback never dangles).
  void set_open_spans_gauge(std::function<std::int64_t()> gauge);
  void clear_open_spans_gauge();

  // -- inspection / export -------------------------------------------------
  [[nodiscard]] const std::vector<PhaseNode>& phases() const { return nodes_; }
  [[nodiscard]] const std::vector<HealthSnapshot>& snapshots() const {
    return snapshots_;
  }
  [[nodiscard]] std::vector<TagStats> alloc_stats() const;
  [[nodiscard]] std::uint64_t wall_ns() const;
  /// Sum of inclusive time over root-level phases (no double counting:
  /// nested scopes attribute to their root ancestor exactly once).
  [[nodiscard]] std::uint64_t attributed_ns() const;
  /// Total inclusive time over every node with exactly this name,
  /// regardless of call path (e.g. "net.solve" under each event's
  /// dispatch, wherever a flow change triggers it).
  [[nodiscard]] std::uint64_t total_ns(const char* name) const;

  /// flamegraph.pl-compatible collapsed stacks over *host* time:
  /// "engine.dispatch;net.solve 1234" (exclusive microseconds), sorted
  /// lexicographically. Counterpart of obs::flame which renders sim time.
  [[nodiscard]] std::string collapsed_stacks() const;

  /// The "prof" JSON block embedded into every BENCH_fig*.json.
  [[nodiscard]] std::string to_json() const;

 private:
  Profiler() = default;
  int child_of(int parent, const char* name);

  std::vector<PhaseNode> nodes_;
  std::vector<int> stack_;  ///< indices of currently open phases
  std::vector<HealthSnapshot> snapshots_;
  std::function<std::int64_t()> open_spans_gauge_;
  std::chrono::steady_clock::time_point epoch_{};
  std::uint64_t stride_ = 8192;
};

// ---------------------------------------------------------------------------
// RAII scope
// ---------------------------------------------------------------------------

class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name) {
    if (!detail::g_enabled) return;
    node_ = Profiler::instance().enter(name);
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (node_ < 0) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    Profiler::instance().leave(
        node_, static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       elapsed)
                       .count()));
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  std::chrono::steady_clock::time_point start_{};
  int node_ = -1;  ///< -1 = profiler was off at construction
};

// Current resident set / peak resident set of this process in MB.
// Linux-only (reads /proc/self/status and getrusage); returns 0 elsewhere.
[[nodiscard]] double current_rss_mb();
[[nodiscard]] double peak_rss_mb();

#define TLB_PROF_CONCAT_INNER(a, b) a##b
#define TLB_PROF_CONCAT(a, b) TLB_PROF_CONCAT_INNER(a, b)
/// Time this lexical scope under `name` in the profiler's phase tree.
/// `name` must be a string literal (the tree stores the pointer).
#define PROF_SCOPE(name) \
  ::tlb::prof::ScopedPhase TLB_PROF_CONCAT(tlb_prof_scope_, __LINE__)(name)

}  // namespace tlb::prof
