#include "stream/sink.hpp"

#include <cstring>
#include <stdexcept>

#include "prof/prof.hpp"

namespace tlb::stream {

namespace {

/// Records are staged in memory and handed to the OS in chunks of this
/// size, so the spill path costs one buffered memcpy per record, not one
/// syscall.
constexpr std::size_t kBufferBytes = 1 << 20;

}  // namespace

StreamSink::StreamSink(StreamConfig config) : config_(std::move(config)) {
  file_ = std::fopen(config_.path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("stream: cannot create spill file " +
                             config_.path);
  }
  buffer_.reserve(kBufferBytes);
  put_bytes(kHeaderMagic, sizeof(kHeaderMagic));
  put_u32(kFormatVersion);
  put_u32(0);  // reserved
}

StreamSink::~StreamSink() { close(); }

// --- buffered little-scalar writers -------------------------------------------

void StreamSink::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  buffer_.insert(buffer_.end(), p, p + n);
  bytes_written_ += n;
}

void StreamSink::put_u8(std::uint8_t v) { put_bytes(&v, sizeof(v)); }
void StreamSink::put_u32(std::uint32_t v) { put_bytes(&v, sizeof(v)); }
void StreamSink::put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }
void StreamSink::put_i32(std::int32_t v) { put_bytes(&v, sizeof(v)); }
void StreamSink::put_f64(double v) { put_bytes(&v, sizeof(v)); }

void StreamSink::begin_record(RecordType type) {
  record_start_ = buffer_.size();
  put_u8(static_cast<std::uint8_t>(type));
  put_u32(0);  // payload size, patched by end_record()
}

void StreamSink::end_record() {
  const std::size_t payload =
      buffer_.size() - record_start_ - kRecordPreludeBytes;
  const auto size32 = static_cast<std::uint32_t>(payload);
  std::memcpy(buffer_.data() + record_start_ + 1, &size32, sizeof(size32));
  flush_if_full();
}

void StreamSink::flush_if_full() {
  if (buffer_.size() < kBufferBytes) return;
  PROF_SCOPE("stream.flush");
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
      buffer_.size()) {
    throw std::runtime_error("stream: short write to " + config_.path);
  }
  buffer_.clear();
}

// --- serialization ------------------------------------------------------------

void StreamSink::store_span(TaskSpan span) {
  PROF_SCOPE("stream.spill");
  begin_record(RecordType::TaskSpan);
  put_u64(static_cast<std::uint64_t>(span.id));
  put_i32(span.apprank);
  put_f64(span.created_at);
  put_f64(span.ready_at);
  put_f64(span.done_at);
  put_u8(static_cast<std::uint8_t>(span.verdict));
  put_u32(static_cast<std::uint32_t>(span.attempts.size()));
  for (const Attempt& a : span.attempts) {
    put_i32(a.worker);
    put_i32(a.node);
    put_i32(a.core);
    put_f64(a.scheduled_at);
    put_f64(a.transfer_start);
    put_f64(a.transfer_end);
    put_f64(a.exec_start);
    put_f64(a.exec_end);
    put_u64(a.transfer_bytes);
    put_u8(a.offloaded ? 1 : 0);
    put_u8(a.rescued ? 1 : 0);
  }
  end_record();
  ++spans_spilled_;
}

void StreamSink::instant(sim::SimTime t, std::string_view name) {
  begin_record(RecordType::Instant);
  put_f64(t);
  put_i32(-1);  // node slot: marks are cluster-scoped
  put_u32(static_cast<std::uint32_t>(name.size()));
  put_bytes(name.data(), name.size());
  end_record();
  ++instants_written_;
}

void StreamSink::metric_window(int epoch, sim::SimTime t_end,
                               std::uint64_t events_fired) {
  begin_record(RecordType::MetricWindow);
  put_i32(epoch);
  put_f64(last_window_end_);
  put_f64(t_end);
  put_u64(events_fired);
  put_u64(spans_spilled_);
  put_u64(instants_written_);
  put_f64(transfer_wait_core_seconds());
  put_u64(rescues());
  end_record();
  last_window_end_ = t_end;
  ++windows_written_;
}

void StreamSink::store_totals(const RunTotals& totals) {
  const std::uint64_t footer_offset = bytes_written_;
  begin_record(RecordType::Footer);
  put_f64(totals.transfer_wait_core_s);
  put_u64(totals.rescues);
  put_u64(spans_spilled_);
  put_u64(instants_written_);
  put_u64(windows_written_);
  put_u64(totals.open_spans);
  end_record();

  put_u64(footer_offset);
  put_bytes(kTrailerMagic, sizeof(kTrailerMagic));

  if (file_ != nullptr) {
    if (!buffer_.empty() &&
        std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
            buffer_.size()) {
      std::fclose(file_);
      file_ = nullptr;
      throw std::runtime_error("stream: short write to " + config_.path);
    }
    buffer_.clear();
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace tlb::stream
