// Bounded-memory streaming span backend (tlb::stream).
//
// StreamSink is the spill-file store of obs::SpanRecorder: the recorder
// runs the task lifecycle state machine and keeps only *open* spans in
// memory; StreamSink serializes each span the moment its task_done
// arrives, so resident span memory is bounded by the in-flight task
// count (peak concurrency), not the total task count. The trace recorder
// writes every timeline mark here as an instant (instant()), in emission
// order, and the spill is the run's only record of them: the recorder
// keeps just their count and interned labels, so marks are part of the
// bounded memory too. The runtime closes the sink at
// finalize(), which flushes the spans still open (crashed-out or
// never-finished tasks), the footer aggregates, and the seekable trailer.
//
// Determinism contract (same as the collector): the sink only records.
// It never posts engine events, reads RNG streams, or feeds back into
// scheduling — a run with the stream backend enabled is bit-identical
// (same schedule fingerprint, same event count) to one without.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"
#include "stream/config.hpp"
#include "stream/record.hpp"

namespace tlb::stream {

class StreamSink final : public obs::SpanRecorder {
 public:
  /// Opens (truncates) config.path and writes the header. Throws
  /// std::runtime_error when the file cannot be created.
  explicit StreamSink(StreamConfig config);
  ~StreamSink() override;

  /// Appends one timeline mark (trace::Recorder::spill_marks_to) as an
  /// instant record. `name` need only outlive the call.
  void instant(sim::SimTime t, std::string_view name);

  /// Appends one windowed metric snapshot (the runtime calls this at
  /// every global barrier with its cumulative engine counters).
  void metric_window(int epoch, sim::SimTime t_end,
                     std::uint64_t events_fired);

  /// Finished spans written to the spill file so far.
  [[nodiscard]] std::uint64_t spans_spilled() const { return spans_spilled_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] const std::string& path() const { return config_.path; }

 private:
  void store_span(TaskSpan span) override;
  /// Writes the footer and the trailer, flushes, and closes the file.
  void store_totals(const RunTotals& totals) override;

  void begin_record(RecordType type);
  void end_record();
  void flush_if_full();

  // Little scalar appenders into buffer_.
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v);
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t n);

  StreamConfig config_;
  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buffer_;
  std::size_t record_start_ = 0;  ///< buffer offset of the open record

  std::uint64_t spans_spilled_ = 0;
  std::uint64_t instants_written_ = 0;
  std::uint64_t windows_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  sim::SimTime last_window_end_ = 0.0;
};

}  // namespace tlb::stream
