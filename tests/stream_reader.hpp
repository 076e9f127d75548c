// Spill-file reader: reconstructs a SpanCollector-equivalent view
// (tlb::stream). It is the test oracle of the spill format: the
// simulator writes spills but never reads one back.
//
// StreamReader parses the binary file a StreamSink wrote and fills an
// obs::SpanCollector through the same store calls a live run makes —
// spans at their dense task-id slots, instants in original emission
// order, the footer's totals — so every exporter (obs::chrome_trace_json,
// obs::collapsed_stacks, obs::critical_path) runs unchanged on streamed
// runs. The spill carries no release ids (TaskSpan::released_by stays
// kNoTask), so a critical path over a read-back spill follows barrier
// edges only. Windowed metric snapshots are exposed alongside.
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
#include "stream/record.hpp"

namespace tlb::stream {

class StreamReader {
 public:
  /// Reads and parses the whole spill file eagerly. Throws
  /// std::runtime_error (with file name + byte offset) on any
  /// open/format/truncation error.
  explicit StreamReader(std::string path);

  /// The reconstructed collector view (spans dense by task id, instants
  /// in emission order, the footer's totals). Feed to the obs exporters.
  [[nodiscard]] const obs::SpanCollector& spans() const { return spans_; }

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
  std::vector<MetricWindow> windows_;
  Footer footer_;
};

}  // namespace tlb::stream
