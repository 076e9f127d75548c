#include "prof/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace tlb::prof {

namespace detail {
bool g_enabled = false;
TagCounters g_alloc[kAllocTagCount] = {};
}  // namespace detail

const char* alloc_tag_name(AllocTag tag) {
  switch (tag) {
    case AllocTag::SimEvent:
      return "sim.event";
    case AllocTag::NanosTask:
      return "nanos.task";
    case AllocTag::NetFlow:
      return "net.flow";
    case AllocTag::ObsSpan:
      return "obs.span";
    case AllocTag::CoreExec:
      return "core.exec";
    case AllocTag::CorePending:
      return "core.pending";
    case AllocTag::TraceMark:
      return "trace.mark";
    case AllocTag::TraceSeries:
      return "trace.series";
    case AllocTag::Count:
      break;
  }
  return "?";
}

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

void Profiler::enable(std::uint64_t snapshot_every_events) {
  detail::g_enabled = true;
  stride_ = snapshot_every_events == 0 ? 1 : snapshot_every_events;
  if (epoch_ == std::chrono::steady_clock::time_point{}) {
    epoch_ = std::chrono::steady_clock::now();
  }
}

void Profiler::disable() { detail::g_enabled = false; }

void Profiler::reset() {
  nodes_.clear();
  stack_.clear();
  snapshots_.clear();
  for (auto& c : detail::g_alloc) c = detail::TagCounters{};
  epoch_ = std::chrono::steady_clock::now();
}

int Profiler::child_of(int parent, const char* name) {
  // PROF_SCOPE sites pass string literals, so a pointer compare settles
  // almost every lookup; strcmp covers the same name spelled in two TUs.
  const auto matches = [&](int idx) {
    return nodes_[static_cast<std::size_t>(idx)].name == name ||
           std::strcmp(nodes_[static_cast<std::size_t>(idx)].name, name) == 0;
  };
  if (parent < 0) {
    for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
      if (nodes_[static_cast<std::size_t>(i)].parent < 0 && matches(i)) {
        return i;
      }
    }
  } else {
    for (int c : nodes_[static_cast<std::size_t>(parent)].children) {
      if (matches(c)) return c;
    }
  }
  const int idx = static_cast<int>(nodes_.size());
  PhaseNode node;
  node.name = name;
  node.parent = parent;
  nodes_.push_back(std::move(node));
  if (parent >= 0) {
    nodes_[static_cast<std::size_t>(parent)].children.push_back(idx);
  }
  return idx;
}

int Profiler::enter(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const int node = child_of(parent, name);
  auto& n = nodes_[static_cast<std::size_t>(node)];
  ++n.calls;
  stack_.push_back(node);
  return node;
}

void Profiler::leave(int node, std::uint64_t duration_ns) {
  // RAII nesting guarantees the closing scope is the innermost open one.
  if (!stack_.empty() && stack_.back() == node) stack_.pop_back();
  auto& n = nodes_[static_cast<std::size_t>(node)];
  n.inclusive_ns += duration_ns;
  if (n.parent >= 0) {
    nodes_[static_cast<std::size_t>(n.parent)].child_ns += duration_ns;
  }
}

std::uint64_t Profiler::sample(std::uint64_t events_fired,
                               std::size_t queue_depth) {
  HealthSnapshot s;
  s.wall_s = static_cast<double>(wall_ns()) * 1e-9;
  s.events_fired = events_fired;
  s.queue_depth = queue_depth;
  s.rss_mb = current_rss_mb();
  s.rss_hwm_mb = peak_rss_mb();
  if (open_spans_gauge_) s.open_spans = open_spans_gauge_();
  s.attributed_ns = attributed_ns();
  s.solve_ns = total_ns("net.solve");
  if (!snapshots_.empty()) {
    const HealthSnapshot& prev = snapshots_.back();
    const double dt = s.wall_s - prev.wall_s;
    // events_fired is per-engine; with several engines sharing the
    // profiler the delta can go negative across a switch — clamp to 0.
    if (dt > 0.0 && s.events_fired > prev.events_fired) {
      s.events_per_sec =
          static_cast<double>(s.events_fired - prev.events_fired) / dt;
    }
  }
  snapshots_.push_back(s);

  // Self-thinning: once the buffer fills, keep every other sample and
  // double the stride, so arbitrarily long runs hold <= kMaxSnapshots
  // samples at roughly uniform spacing.
  constexpr std::size_t kMaxSnapshots = 512;
  if (snapshots_.size() >= kMaxSnapshots) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < snapshots_.size(); r += 2) {
      snapshots_[w++] = snapshots_[r];
    }
    snapshots_.resize(w);
    stride_ *= 2;
  }
  return stride_;
}

void Profiler::set_open_spans_gauge(const void* key,
                                    std::function<std::int64_t()> gauge) {
  open_spans_key_ = key;
  open_spans_gauge_ = std::move(gauge);
}

void Profiler::clear_open_spans_gauge(const void* key) {
  if (key != open_spans_key_) return;
  open_spans_key_ = nullptr;
  open_spans_gauge_ = nullptr;
}

std::vector<TagStats> Profiler::alloc_stats() const {
  std::vector<TagStats> out;
  out.reserve(kAllocTagCount);
  for (int i = 0; i < kAllocTagCount; ++i) {
    const auto& c = detail::g_alloc[i];
    TagStats s;
    s.tag = alloc_tag_name(static_cast<AllocTag>(i));
    s.alive_bytes = c.alive_bytes;
    s.peak_bytes = c.peak_bytes;
    s.allocs = c.allocs;
    s.frees = c.frees;
    out.push_back(s);
  }
  return out;
}

std::uint64_t Profiler::wall_ns() const {
  if (epoch_ == std::chrono::steady_clock::time_point{}) return 0;
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

std::uint64_t Profiler::attributed_ns() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    if (n.parent < 0) total += n.inclusive_ns;
  }
  return total;
}

std::uint64_t Profiler::total_ns(const char* name) const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    if (n.name == name || std::strcmp(n.name, name) == 0) {
      total += n.inclusive_ns;
    }
  }
  return total;
}

namespace {

void collect_stacks(const std::vector<PhaseNode>& nodes, int idx,
                    const std::string& prefix,
                    std::vector<std::string>& lines) {
  const auto& n = nodes[static_cast<std::size_t>(idx)];
  const std::string path = prefix.empty() ? n.name : prefix + ";" + n.name;
  const std::uint64_t self_us = n.exclusive_ns() / 1000;
  if (self_us > 0) {
    lines.push_back(path + " " + std::to_string(self_us));
  }
  for (int c : n.children) collect_stacks(nodes, c, path, lines);
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string Profiler::collapsed_stacks() const {
  std::vector<std::string> lines;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].parent < 0) {
      collect_stacks(nodes_, i, "", lines);
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string Profiler::to_json() const {
  const std::uint64_t wall = wall_ns();
  const std::uint64_t attributed = attributed_ns();
  const double unattributed_share =
      wall > 0 ? 1.0 - std::min(1.0, static_cast<double>(attributed) /
                                         static_cast<double>(wall))
               : 0.0;

  std::ostringstream os;
  os << "{\"wall_s\": " << fmt_double(static_cast<double>(wall) * 1e-9)
     << ", \"attributed_ns\": " << attributed
     << ", \"unattributed_share\": " << fmt_double(unattributed_share)
     << ", \"phases\": [";
  // Emit depth-first so a reader can rebuild the tree from the paths.
  bool first = true;
  std::vector<std::string> paths(nodes_.size());
  std::vector<int> order;
  order.reserve(nodes_.size());
  std::function<void(int, const std::string&)> walk =
      [&](int idx, const std::string& prefix) {
        const auto& n = nodes_[static_cast<std::size_t>(idx)];
        paths[static_cast<std::size_t>(idx)] =
            prefix.empty() ? n.name : prefix + ";" + n.name;
        order.push_back(idx);
        for (int c : n.children) {
          walk(c, paths[static_cast<std::size_t>(idx)]);
        }
      };
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].parent < 0) walk(i, "");
  }
  for (int idx : order) {
    const auto& n = nodes_[static_cast<std::size_t>(idx)];
    if (!first) os << ", ";
    first = false;
    os << "{\"path\": \"" << paths[static_cast<std::size_t>(idx)]
       << "\", \"calls\": " << n.calls
       << ", \"inclusive_ns\": " << n.inclusive_ns
       << ", \"exclusive_ns\": " << n.exclusive_ns() << "}";
  }
  os << "], \"alloc\": [";
  first = true;
  for (const auto& s : alloc_stats()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"tag\": \"" << s.tag << "\", \"alive_bytes\": " << s.alive_bytes
       << ", \"peak_bytes\": " << s.peak_bytes << ", \"allocs\": " << s.allocs
       << ", \"frees\": " << s.frees << "}";
  }
  os << "], \"snapshot_stride\": " << stride_ << ", \"snapshots\": [";
  first = true;
  for (const auto& s : snapshots_) {
    if (!first) os << ", ";
    first = false;
    os << "{\"wall_s\": " << fmt_double(s.wall_s)
       << ", \"events_fired\": " << s.events_fired
       << ", \"events_per_sec\": " << fmt_double(s.events_per_sec)
       << ", \"queue_depth\": " << s.queue_depth
       << ", \"rss_mb\": " << fmt_double(s.rss_mb)
       << ", \"rss_hwm_mb\": " << fmt_double(s.rss_hwm_mb)
       << ", \"open_spans\": " << s.open_spans
       << ", \"attributed_ns\": " << s.attributed_ns
       << ", \"solve_ns\": " << s.solve_ns << "}";
  }
  os << "]}";
  return os.str();
}

namespace {

/// The "`field`: N kB" line of /proc/self/status in MB; negative when the
/// file or the line cannot be read.
double status_mb(const char* field) {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str() + prefix.size(), "%ld", &kb);
      return static_cast<double>(kb) / 1024.0;
    }
  }
#endif
  (void)field;
  return -1.0;
}

}  // namespace

double current_rss_mb() { return std::max(0.0, status_mb("VmRSS")); }

double peak_rss_mb() {
  // VmHWM is kept exactly; getrusage's ru_maxrss (KB) is updated lazily,
  // can read below a VmRSS taken just before it, and keeps the peak of the
  // image the process had before exec (its launcher's).
  const double hwm = status_mb("VmHWM");
  if (hwm >= 0.0) return hwm;
#if defined(__linux__)
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return 0.0;
#endif
}

}  // namespace tlb::prof
