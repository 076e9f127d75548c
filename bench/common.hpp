// Shared helpers for the figure-reproduction benches.
//
// Each bench binary regenerates one table/figure of the paper: it runs the
// relevant cluster configurations through the simulator and prints the
// same series the paper plots (execution time vs nodes / imbalance /
// policy). Absolute times are simulated seconds on the modelled machines
// (MareNostrum 4: 48-core nodes; Nord3: 16-core nodes), so the *shapes*
// — who wins, by what factor, where crossovers fall — are the result.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "prof/prof.hpp"

namespace tlb::bench {

/// True when TLB_PROF is set (and not "0"): the bench enables the host
/// self-profiler (tlb::prof) and every JsonReport gains a "prof" block
/// plus a tlb_prof_<figure>.collapsed host-flamegraph artifact.
inline bool prof_requested() {
  const char* e = std::getenv("TLB_PROF");
  return e != nullptr && e[0] != '\0' && std::string(e) != "0";
}

/// Peak resident set of this process in MB (Linux: getrusage; hoisted
/// out of fig17 so every fig bench emits it). 0 on unsupported platforms.
inline double peak_rss_mb() { return prof::peak_rss_mb(); }

/// Current resident set in MB (/proc/self/status VmRSS; 0 elsewhere).
inline double current_rss_mb() { return prof::current_rss_mb(); }

/// Paper machine models.
inline sim::ClusterSpec marenostrum4(int nodes) {
  return sim::ClusterSpec::homogeneous(nodes, 48);
}
inline sim::ClusterSpec nord3(int nodes, bool one_slow_node) {
  // Nord3: 2x 8-core sockets; the slow node runs at 1.8 GHz vs 3.0 GHz.
  return one_slow_node
             ? sim::ClusterSpec::with_slow_node(nodes, 16, 0, 1.8 / 3.0)
             : sim::ClusterSpec::homogeneous(nodes, 16);
}

/// Named configuration for a series in a figure.
struct Series {
  std::string name;
  int degree = 1;
  bool lewi = true;
  bool drom = true;
  core::PolicyKind policy = core::PolicyKind::Global;
};

/// The standard series the application figures sweep: no DLB baseline,
/// single-node DLB (degree 1), then increasing offloading degree.
inline std::vector<Series> paper_series(core::PolicyKind policy,
                                        const std::vector<int>& degrees) {
  std::vector<Series> out;
  out.push_back({"baseline", 1, false, false, core::PolicyKind::None});
  out.push_back({"dlb(deg1)", 1, true, true, policy});
  for (int d : degrees) {
    out.push_back({"degree " + std::to_string(d), d, true, true, policy});
  }
  return out;
}

inline core::RuntimeConfig make_config(sim::ClusterSpec cluster, int per_node,
                                       const Series& s) {
  core::RuntimeConfig cfg;
  cfg.cluster = std::move(cluster);
  cfg.appranks_per_node = per_node;
  cfg.degree = s.degree;
  cfg.lewi = s.lewi;
  cfg.drom = s.drom;
  cfg.policy = s.policy;
  // TLB_PROF=1 profiles every bench: runtimes register their telemetry
  // gauge and the engine loop samples health snapshots. Record-only —
  // the measured schedules are bit-identical either way.
  cfg.prof.enabled = prof_requested();
  return cfg;
}

/// True when the series fits on the nodes (enough cores for one per
/// worker; degree cannot exceed the node count).
inline bool feasible(const sim::ClusterSpec& cluster, int per_node,
                     const Series& s) {
  if (s.degree > cluster.node_count()) return false;
  const int workers_per_node = per_node * s.degree;
  for (const auto& n : cluster.nodes) {
    if (workers_per_node > n.cores) return false;
  }
  return true;
}

// --- table printing -----------------------------------------------------------

inline void print_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "------");
  std::printf("\n");
}

inline void print_cell(const std::string& v) { std::printf("%14s", v.c_str()); }
inline void print_cell(double v) { std::printf("%14.3f", v); }
inline void print_cell(int v) { std::printf("%14d", v); }
inline void end_row() { std::printf("\n"); }

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// --- machine-readable output --------------------------------------------------

/// True when TLB_BENCH_SMOKE is set (and not "0"): benches shrink their
/// sweeps to tiny sizes so CI can execute every figure in seconds. The
/// numbers are meaningless for the paper shapes — the run only proves the
/// binaries execute and the JSON reports stay well-formed.
inline bool smoke() {
  const char* e = std::getenv("TLB_BENCH_SMOKE");
  return e != nullptr && e[0] != '\0' && std::string(e) != "0";
}

/// Directory to drop execution traces into (Chrome trace JSON, Paraver
/// .prv/.row/.pcf), or null when TLB_TRACE_OUTPUT_DIR is unset: trace
/// emission is opt-in because the files are large.
inline const char* trace_output_dir() {
  const char* e = std::getenv("TLB_TRACE_OUTPUT_DIR");
  return (e != nullptr && e[0] != '\0') ? e : nullptr;
}

inline bool write_text_file(const std::string& path,
                            const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("[trace] wrote %s\n", path.c_str());
  return true;
}

/// One flat JSON object built key by key; insertion order is preserved.
/// Values are rendered immediately, so the object holds only strings.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.12g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    kv_.emplace_back(key, buf);
    return *this;
  }
  JsonObject& set(const std::string& key, int v) {
    kv_.emplace_back(key, std::to_string(v));
    return *this;
  }
  JsonObject& set(const std::string& key, std::uint64_t v) {
    kv_.emplace_back(key, std::to_string(v));
    return *this;
  }
  JsonObject& set(const std::string& key, bool v) {
    kv_.emplace_back(key, v ? "true" : "false");
    return *this;
  }
  JsonObject& set(const std::string& key, const std::string& v) {
    kv_.emplace_back(key, quote(v));
    return *this;
  }
  JsonObject& set(const std::string& key, const char* v) {
    return set(key, std::string(v));
  }

  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(kv_[i].first) + ": " + kv_[i].second;
    }
    return out + "}";
  }

  [[nodiscard]] static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Collects the numbers behind one figure and writes them to
/// BENCH_<figure>.json — alongside, not instead of, the human tables — so
/// CI can archive every figure as a machine-readable artifact. Shape:
///
///   { "figure": "fig08", "title": "...", "smoke": false,
///     "config": { ... },
///     "series": [ {"name": "degree 4", "points": [{...}, ...]}, ... ],
///     "wall_ms": 123.4 }
///
/// Points are flat objects (one per measured combination). The file lands
/// in the current directory unless TLB_BENCH_OUTPUT_DIR is set. write()
/// is idempotent; the destructor writes if nobody did.
class JsonReport {
 public:
  JsonReport(std::string figure, std::string title)
      : figure_(std::move(figure)),
        title_(std::move(title)),
        start_(std::chrono::steady_clock::now()) {
    if (prof_requested()) {
      // Fresh measurement window per bench binary: the report's "prof"
      // block then covers exactly this figure's runs.
      prof::Profiler::instance().enable();
      prof::Profiler::instance().reset();
    }
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() {
    if (!written_) write();
  }

  /// Figure-level parameters (node counts, payload sizes, ...).
  JsonObject& config() { return config_; }

  /// Reports `json` and `collapsed` as the figure's "prof" block and
  /// collapsed-stack fold in place of this process's profiler window (a
  /// bench whose runs happen in forked children hands one child's back).
  void use_profile(std::string json, std::string collapsed) {
    profile_json_ = std::move(json);
    profile_collapsed_ = std::move(collapsed);
  }

  /// Appends a point to `series` (created on first use, order preserved)
  /// and returns it for chained set() calls.
  JsonObject& point(const std::string& series) {
    for (auto& s : series_) {
      if (s.first == series) {
        s.second.emplace_back();
        return s.second.back();
      }
    }
    series_.emplace_back(series, std::vector<JsonObject>(1));
    return series_.back().second.back();
  }

  bool write() {
    written_ = true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    std::string out = "{\n";
    out += "  \"figure\": " + JsonObject::quote(figure_) + ",\n";
    out += "  \"title\": " + JsonObject::quote(title_) + ",\n";
    out += std::string("  \"smoke\": ") + (smoke() ? "true" : "false") + ",\n";
    out += "  \"config\": " + config_.render() + ",\n";
    out += "  \"series\": [\n";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      out += "    {\"name\": " + JsonObject::quote(series_[i].first) +
             ", \"points\": [\n";
      const auto& pts = series_[i].second;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        out += "      " + pts[j].render();
        out += j + 1 < pts.size() ? ",\n" : "\n";
      }
      out += i + 1 < series_.size() ? "    ]},\n" : "    ]}\n";
    }
    out += "  ],\n";
    // Every figure report carries the process peak RSS so memory is
    // trend-tracked across all benches, not just fig17's scale arm.
    char rss[64];
    std::snprintf(rss, sizeof(rss), "%.1f", peak_rss_mb());
    out += std::string("  \"peak_rss_mb\": ") + rss + ",\n";
    if (prof::enabled()) {
      out += "  \"prof\": " +
             (profile_json_.empty() ? prof::Profiler::instance().to_json()
                                    : profile_json_) +
             ",\n";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", wall_ms);
    out += std::string("  \"wall_ms\": ") + buf + "\n}\n";

    std::string dir;
    if (const char* d = std::getenv("TLB_BENCH_OUTPUT_DIR")) {
      if (d[0] != '\0') dir = std::string(d) + "/";
    }
    const std::string path = dir + "BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("[json] wrote %s\n", path.c_str());
    if (prof::enabled()) {
      // Host wall-time flamegraph input (flamegraph.pl-compatible), the
      // host-side counterpart of the obs flame export over sim time.
      write_text_file(dir + "tlb_prof_" + figure_ + ".collapsed",
                      profile_json_.empty()
                          ? prof::Profiler::instance().collapsed_stacks()
                          : profile_collapsed_);
    }
    return true;
  }

 private:
  std::string figure_;
  std::string title_;
  std::chrono::steady_clock::time_point start_;
  JsonObject config_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> series_;
  /// Set by use_profile(); empty means this process's profiler window.
  std::string profile_json_;
  std::string profile_collapsed_;
  bool written_ = false;
};

}  // namespace tlb::bench
