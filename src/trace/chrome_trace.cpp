#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace tlb::trace {

namespace {

std::int64_t to_us(sim::SimTime t) {
  return static_cast<std::int64_t>(t * 1e6 + 0.5);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::vector<ChromeEvent> chrome_events(const obs::SpanCollector& spans,
                                       const Recorder& recorder) {
  if (recorder.marks_spilled()) {
    throw std::logic_error(
        "chrome_events: the recorder's marks went to a stream spill");
  }
  const int nodes = recorder.nodes();
  const int appranks = recorder.appranks();
  std::vector<ChromeEvent> meta;
  std::vector<ChromeEvent> events;

  for (int n = 0; n < nodes; ++n) {
    ChromeEvent pn;
    pn.name = "process_name";
    pn.ph = 'M';
    pn.pid = n;
    pn.tid = 0;
    pn.args = "{\"name\": \"node " + std::to_string(n) + "\"}";
    meta.push_back(std::move(pn));
    for (int a = 0; a < appranks; ++a) {
      ChromeEvent tn;
      tn.name = "thread_name";
      tn.ph = 'M';
      tn.pid = n;
      tn.tid = a;
      tn.args = "{\"name\": \"apprank " + std::to_string(a) + "\"}";
      meta.push_back(std::move(tn));
    }
  }

  for (const obs::SpanCollector::TaskSpan& s : spans.spans()) {
    if (s.id == nanos::kNoTask) continue;
    for (const obs::SpanCollector::Attempt& at : s.attempts) {
      const int pid = at.node >= 0 ? at.node : 0;
      const int tid = s.apprank >= 0 ? s.apprank : 0;
      if (at.transfer_start >= 0.0 && at.transfer_end >= 0.0) {
        ChromeEvent b;
        b.name = "transfer task " + std::to_string(s.id);
        b.ph = 'B';
        b.ts_us = to_us(at.transfer_start);
        b.pid = pid;
        b.tid = tid;
        b.args = "{\"task\": " + std::to_string(s.id) +
                 ", \"bytes\": " + std::to_string(at.transfer_bytes) + "}";
        ChromeEvent e;
        e.name = b.name;
        e.ph = 'E';
        e.ts_us = to_us(at.transfer_end);
        e.pid = pid;
        e.tid = tid;
        events.push_back(std::move(b));
        events.push_back(std::move(e));
      }
      if (at.exec_start >= 0.0 && at.exec_end >= 0.0) {
        ChromeEvent b;
        b.name = "task " + std::to_string(s.id);
        b.ph = 'B';
        b.ts_us = to_us(at.exec_start);
        b.pid = pid;
        b.tid = tid;
        b.args = "{\"task\": " + std::to_string(s.id) +
                 ", \"worker\": " + std::to_string(at.worker) +
                 ", \"core\": " + std::to_string(at.core) + "}";
        ChromeEvent e;
        e.name = b.name;
        e.ph = 'E';
        e.ts_us = to_us(at.exec_end);
        e.pid = pid;
        e.tid = tid;
        events.push_back(std::move(b));
        events.push_back(std::move(e));
      }
      if (at.rescued) {
        ChromeEvent i;
        i.name = "rescue task " + std::to_string(s.id);
        i.ph = 'i';
        // A rescued attempt ends at whatever progress point it reached.
        i.ts_us = to_us(std::max({at.scheduled_at, at.transfer_start,
                                  at.exec_start, 0.0}));
        i.pid = pid;
        i.tid = tid;
        events.push_back(std::move(i));
      }
    }
  }

  for (const Mark& m : recorder.marks()) {
    ChromeEvent i;
    i.name = m.label;
    i.ph = 'i';
    i.ts_us = to_us(m.t);
    i.pid = 0;
    i.tid = 0;
    events.push_back(std::move(i));
  }

  // Global timestamp order; the stable sort keeps each span's B before its
  // E when they share a timestamp (zero-length spans stay well-formed).
  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeEvent& x, const ChromeEvent& y) {
                     return x.ts_us < y.ts_us;
                   });
  meta.insert(meta.end(), events.begin(), events.end());
  return meta;
}

std::string chrome_trace_json(const std::vector<ChromeEvent>& events) {
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChromeEvent& e = events[i];
    out += "{\"name\": \"" + json_escape(e.name) + "\", \"ph\": \"" + e.ph +
           "\", \"ts\": " + std::to_string(e.ts_us) +
           ", \"pid\": " + std::to_string(e.pid) +
           ", \"tid\": " + std::to_string(e.tid);
    out += ", \"cat\": \"tlb\"";
    if (e.ph == 'i') out += ", \"s\": \"g\"";
    if (!e.args.empty()) out += ", \"args\": " + e.args;
    out += "}";
    if (i + 1 < events.size()) out += ",";
    out += "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string chrome_trace_json(const obs::SpanCollector& spans,
                              const Recorder& recorder) {
  return chrome_trace_json(chrome_events(spans, recorder));
}

}  // namespace tlb::trace
