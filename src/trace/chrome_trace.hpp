// Chrome trace-event JSON export of task spans and timeline marks
// (tlb::trace).
//
// Renders an obs::SpanCollector and a Recorder's marks as the Chrome
// trace-event format that chrome://tracing and Perfetto (ui.perfetto.dev)
// load directly: one process per node, one thread (track) per (node,
// apprank) pair, duration events ("ph": "B"/"E") for the offload-transfer
// and execution phases of every attempt, instant events for rescues on the
// attempt's track, and one global instant per timeline mark (scheduler
// verdicts, congestion, faults). Timestamps are microseconds of simulated
// time. Like to_paraver, it refuses a recorder whose marks were spilled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "trace/recorder.hpp"

namespace tlb::trace {

/// One trace event, pre-serialization. Exposed so tests can assert
/// structural invariants (monotone timestamps, B/E pairing) without
/// parsing JSON.
struct ChromeEvent {
  std::string name;
  char ph = 'i';           ///< B, E, i (instant), M (metadata)
  std::int64_t ts_us = 0;  ///< microseconds of simulated time
  int pid = 0;             ///< node
  int tid = 0;             ///< apprank
  std::string args;        ///< pre-rendered JSON object ("" = none)
};

/// The event list for a collected run: metadata first, then all span and
/// instant events in non-decreasing timestamp order. The recorder's node
/// and apprank counts size the track naming. Throws std::logic_error if
/// the recorder's marks were spilled (Recorder::marks_spilled).
std::vector<ChromeEvent> chrome_events(const obs::SpanCollector& spans,
                                       const Recorder& recorder);

/// Serializes the event list as a Chrome trace JSON document
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}).
std::string chrome_trace_json(const std::vector<ChromeEvent>& events);

/// Convenience: chrome_trace_json(chrome_events(...)).
std::string chrome_trace_json(const obs::SpanCollector& spans,
                              const Recorder& recorder);

}  // namespace tlb::trace
