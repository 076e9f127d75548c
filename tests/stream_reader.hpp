// Spill-file reader: reconstructs a SpanCollector-equivalent view
// (tlb::stream). It is the test oracle of the spill format: the
// simulator writes spills but never reads one back.
//
// StreamReader parses the binary file a StreamSink wrote and fills an
// obs::SpanCollector through the same store calls a live run makes —
// spans at their dense task-id slots, then the footer's totals — so every
// span exporter (trace::chrome_trace_json, obs::collapsed_stacks,
// obs::critical_path) runs unchanged on streamed runs. The spilled
// timeline marks are kept beside it in emission order; a trace::Recorder
// filled with them feeds the Chrome exporter. The spill carries no
// release ids (TaskSpan::released_by stays kNoTask), so a critical path
// over a read-back spill follows barrier edges only. Windowed metric
// snapshots are exposed alongside.
//
// Validation: the header magic/version, the trailer (footer offset +
// closing magic), every record prelude/payload bound, and the footer's
// record counts are all checked while scanning. Malformed input throws
// std::runtime_error naming the file and the exact byte offset, so a
// truncated or corrupted spill is a diagnosable error, never garbage
// spans.
#pragma once

#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/time.hpp"
#include "stream/record.hpp"

namespace tlb::stream {

/// One spilled timeline mark: the spill keeps a mark's time and label,
/// not its kind or value.
struct SpilledInstant {
  sim::SimTime t = 0.0;
  std::string name;
};

class StreamReader {
 public:
  /// Reads and parses the whole spill file eagerly. Throws
  /// std::runtime_error (with file name + byte offset) on any
  /// open/format/truncation error.
  explicit StreamReader(std::string path);

  /// The reconstructed collector view (spans dense by task id, the
  /// footer's totals). Feed to the span exporters.
  [[nodiscard]] const obs::SpanCollector& spans() const { return spans_; }

  /// The spilled timeline marks, in emission order.
  [[nodiscard]] const std::vector<SpilledInstant>& instants() const {
    return instants_;
  }

  /// Windowed metric snapshots, in capture (barrier-epoch) order.
  [[nodiscard]] const std::vector<MetricWindow>& windows() const {
    return windows_;
  }

  [[nodiscard]] const Footer& footer() const { return footer_; }
  [[nodiscard]] std::uint64_t span_records() const {
    return footer_.span_records;
  }

 private:
  obs::SpanCollector spans_;
  std::vector<SpilledInstant> instants_;
  std::vector<MetricWindow> windows_;
  Footer footer_;
};

}  // namespace tlb::stream
