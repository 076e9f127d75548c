#include "trace/paraver.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace tlb::trace {

namespace {

std::int64_t to_ns(sim::SimTime t) {
  return static_cast<std::int64_t>(t * 1e9 + 0.5);
}

struct EventRecord {
  std::int64_t time;
  int thread;  // 1-based Paraver thread id
  int type;
  std::int64_t value;
};

void collect(const StepSeries& series, int thread, int type,
             std::int64_t end_ns, std::vector<EventRecord>& out) {
  for (const auto& [t, v] : series.points()) {
    const std::int64_t ns = to_ns(t);
    if (ns > end_ns) break;
    out.push_back(EventRecord{ns, thread, type,
                              static_cast<std::int64_t>(v + 0.5)});
  }
}

int mark_event_type(MarkKind kind) {
  switch (kind) {
    case MarkKind::SchedSteer:
      return kParaverSchedSteerEvent;
    case MarkKind::SchedSuppress:
      return kParaverSchedSuppressEvent;
    case MarkKind::NetCongestion:
      return kParaverNetCongestionEvent;
    case MarkKind::NetCleared:
      return kParaverNetClearedEvent;
    case MarkKind::Generic:
    case MarkKind::FaultInjected:
      break;
  }
  return 0;
}

}  // namespace

std::string to_paraver(const Recorder& recorder, sim::SimTime end) {
  if (recorder.marks_spilled()) {
    throw std::logic_error(
        "to_paraver: the recorder's marks went to a stream spill");
  }
  const int threads = recorder.nodes() * recorder.appranks();
  const std::int64_t end_ns = to_ns(end);

  std::vector<EventRecord> events;
  for (int n = 0; n < recorder.nodes(); ++n) {
    for (int a = 0; a < recorder.appranks(); ++a) {
      const int thread = n * recorder.appranks() + a + 1;
      collect(recorder.busy(n, a), thread, kParaverBusyEvent, end_ns, events);
      collect(recorder.owned(n, a), thread, kParaverOwnedEvent, end_ns,
              events);
    }
  }
  // Typed marks are cluster-global instants; Paraver events need a thread,
  // so they ride on thread 1 with the worker/link id as value.
  for (const Mark& m : recorder.marks()) {
    const int type = mark_event_type(m.kind);
    if (type == 0) continue;
    const std::int64_t ns = to_ns(m.t);
    if (ns > end_ns) continue;
    events.push_back(EventRecord{ns, 1, type, m.value});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const EventRecord& x, const EventRecord& y) {
                     return x.time < y.time;
                   });

  std::ostringstream out;
  // Header: #Paraver (date):total_time_ns:resource_model:n_appl:appl_list
  // A single application with `threads` threads on one "node".
  out << "#Paraver (01/01/22 at 00:00):" << end_ns << "_ns:0:1:1("
      << threads << ":1)\n";
  for (const EventRecord& e : events) {
    // Record type 2 = event: 2:cpu:appl:task:thread:time:type:value
    out << "2:" << e.thread << ":1:1:" << e.thread << ':' << e.time << ':'
        << e.type << ':' << e.value << '\n';
  }
  return out.str();
}

std::string paraver_pcf() {
  std::ostringstream out;
  out << "DEFAULT_OPTIONS\n\n"
      << "LEVEL               THREAD\n"
      << "UNITS               NANOSEC\n\n"
      << "DEFAULT_SEMANTIC\n\n"
      << "THREAD_FUNC         State As Is\n\n";
  const std::pair<int, const char*> types[] = {
      {kParaverBusyEvent, "Busy cores (apprank on node)"},
      {kParaverOwnedEvent, "Owned cores (DROM allocation)"},
      {kParaverSchedSteerEvent, "Scheduler steered offload (value: worker)"},
      {kParaverSchedSuppressEvent,
       "Scheduler suppressed offload (value: worker)"},
      {kParaverNetCongestionEvent, "Fabric link congested (value: link)"},
      {kParaverNetClearedEvent, "Fabric link cleared (value: link)"},
  };
  for (const auto& [type, label] : types) {
    out << "EVENT_TYPE\n"
        << "0    " << type << "    " << label << "\n\n";
  }
  return out.str();
}

std::string paraver_row_labels(const Recorder& recorder) {
  std::ostringstream out;
  const int threads = recorder.nodes() * recorder.appranks();
  out << "LEVEL THREAD SIZE " << threads << '\n';
  for (int n = 0; n < recorder.nodes(); ++n) {
    for (int a = 0; a < recorder.appranks(); ++a) {
      out << "node " << n << " apprank " << a << '\n';
    }
  }
  return out.str();
}

}  // namespace tlb::trace
