// Configuration of the streaming telemetry backend (tlb::stream).
//
// Dependency-free on purpose: obs/config.hpp embeds this struct so the
// stream backend is selectable as RuntimeConfig::obs.stream, but tlb_obs
// never links tlb_stream (the runtime constructs the sink).
#pragma once

#include <string>

namespace tlb::stream {

struct StreamConfig {
  /// Master switch. When set the runtime's span recorder stores finished
  /// spans in a stream::StreamSink instead of the in-memory
  /// obs::SpanCollector: they are serialized to `path` as they complete
  /// and only *open* spans stay resident, so span memory is bounded by
  /// the in-flight task count instead of the total task count.
  /// Pure recording like the collector — schedules stay bit-identical
  /// whether the stream backend, the collector, or neither is active.
  bool enabled = false;

  /// Spill file the binary span records are appended to. Created (or
  /// truncated) when the runtime constructs the sink.
  std::string path = "tlb_spans.stream";
};

}  // namespace tlb::stream
