// Observability configuration (tlb::obs).
#pragma once

#include "stream/config.hpp"

namespace tlb::obs {

struct ObsConfig {
  /// Collect per-task lifecycle spans (obs::SpanCollector) during the run.
  /// Off by default: span collection is pure recording — it never posts
  /// engine events, touches RNG streams, or feeds back into scheduling —
  /// so enabling it keeps schedules bit-identical, but it costs memory
  /// proportional to the task count.
  bool spans = false;

  /// Streaming span backend (tlb::stream): when stream.enabled the
  /// runtime records spans through a bounded-memory StreamSink that
  /// spills finished spans to stream.path instead of the in-memory
  /// collector (which this field supersedes — `spans` is implied). The
  /// spill is then also the run's only record of the timeline marks
  /// (trace::Recorder::marks() stays empty). The default (disabled) keeps
  /// the in-memory collector semantics and is bit-identical either way;
  /// see stream/config.hpp.
  stream::StreamConfig stream;
};

}  // namespace tlb::obs
