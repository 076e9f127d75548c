#include "stream_reader.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace tlb::stream {

namespace {

/// Bounds-checked little cursor over the loaded file. Every read failure
/// throws with the file name and the byte offset where parsing stopped.
struct Cursor {
  const std::string& path;
  const std::vector<unsigned char>& data;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(path + ": offset " + std::to_string(pos) + ": " +
                             message);
  }
  void need(std::size_t n, const char* what) const {
    if (pos + n > data.size()) {
      fail(std::string("truncated ") + what + " (need " + std::to_string(n) +
           " bytes, have " + std::to_string(data.size() - pos) + ")");
    }
  }
  template <typename T>
  T get(const char* what) {
    need(sizeof(T), what);
    T v;
    std::memcpy(&v, data.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  std::string get_string(std::size_t n, const char* what) {
    need(n, what);
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
};

std::vector<unsigned char> load_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error(path + ": cannot open spill file");
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> data(size > 0 ? static_cast<std::size_t>(size)
                                           : 0);
  if (!data.empty() &&
      std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    throw std::runtime_error(path + ": short read");
  }
  std::fclose(f);
  return data;
}

}  // namespace

StreamReader::StreamReader(std::string path) {
  const std::vector<unsigned char> data = load_file(path);
  Cursor c{path, data, 0};

  // Header.
  constexpr std::size_t kHeaderBytes =
      sizeof(kHeaderMagic) + 2 * sizeof(std::uint32_t);
  constexpr std::size_t kTrailerBytes =
      sizeof(std::uint64_t) + sizeof(kTrailerMagic);
  c.need(kHeaderBytes, "header");
  if (std::memcmp(data.data(), kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    c.fail("bad header magic (not a tlb stream spill file)");
  }
  c.pos = sizeof(kHeaderMagic);
  const auto version = c.get<std::uint32_t>("header version");
  if (version != kFormatVersion) {
    c.fail("unsupported format version " + std::to_string(version));
  }
  (void)c.get<std::uint32_t>("header reserved");

  // Trailer: validated before any record is trusted, so a run that died
  // mid-spill (no close()) is reported as truncation, not parsed as far
  // as the corruption happens to allow.
  if (data.size() < kHeaderBytes + kTrailerBytes) {
    c.pos = data.size();
    c.fail("file too small for trailer (stream not closed?)");
  }
  Cursor t{path, data, data.size() - kTrailerBytes};
  const auto footer_offset = t.get<std::uint64_t>("trailer footer offset");
  if (std::memcmp(data.data() + t.pos, kTrailerMagic,
                  sizeof(kTrailerMagic)) != 0) {
    t.fail("bad trailer magic (stream not closed or truncated)");
  }
  if (footer_offset < kHeaderBytes ||
      footer_offset >= data.size() - kTrailerBytes) {
    t.pos = data.size() - kTrailerBytes;
    t.fail("footer offset " + std::to_string(footer_offset) +
           " out of bounds");
  }

  // Records, header to trailer.
  const std::size_t end = data.size() - kTrailerBytes;
  std::uint64_t spans = 0, instants = 0, windows = 0;
  bool saw_footer = false;
  while (c.pos < end) {
    const std::size_t record_at = c.pos;
    const auto type = c.get<std::uint8_t>("record type");
    const auto payload = c.get<std::uint32_t>("record size");
    const std::size_t payload_end = c.pos + payload;
    if (payload_end > end) {
      c.pos = record_at;
      c.fail("record payload of " + std::to_string(payload) +
             " bytes overruns the file");
    }
    switch (static_cast<RecordType>(type)) {
      case RecordType::TaskSpan: {
        obs::SpanCollector::TaskSpan s;
        s.id = static_cast<nanos::TaskId>(c.get<std::uint64_t>("span id"));
        s.apprank = c.get<std::int32_t>("span apprank");
        s.created_at = c.get<double>("span created_at");
        s.ready_at = c.get<double>("span ready_at");
        s.done_at = c.get<double>("span done_at");
        s.verdict =
            static_cast<obs::SchedVerdict>(c.get<std::uint8_t>("verdict"));
        const auto attempts = c.get<std::uint32_t>("attempt count");
        s.attempts.reserve(attempts);
        for (std::uint32_t i = 0; i < attempts; ++i) {
          obs::SpanCollector::Attempt a;
          a.worker = c.get<std::int32_t>("attempt worker");
          a.node = c.get<std::int32_t>("attempt node");
          a.core = c.get<std::int32_t>("attempt core");
          a.scheduled_at = c.get<double>("attempt scheduled_at");
          a.transfer_start = c.get<double>("attempt transfer_start");
          a.transfer_end = c.get<double>("attempt transfer_end");
          a.exec_start = c.get<double>("attempt exec_start");
          a.exec_end = c.get<double>("attempt exec_end");
          a.transfer_bytes = c.get<std::uint64_t>("attempt bytes");
          a.offloaded = c.get<std::uint8_t>("attempt offloaded") != 0;
          a.rescued = c.get<std::uint8_t>("attempt rescued") != 0;
          s.attempts.push_back(a);
        }
        spans_.store_span(std::move(s));
        ++spans;
        break;
      }
      case RecordType::Instant: {
        const auto t = c.get<double>("instant time");
        (void)c.get<std::int32_t>("instant node");  // always -1
        const auto len = c.get<std::uint32_t>("instant name length");
        instants_.push_back({t, c.get_string(len, "instant name")});
        ++instants;
        break;
      }
      case RecordType::MetricWindow: {
        MetricWindow w;
        w.epoch = c.get<std::int32_t>("window epoch");
        w.t_begin = c.get<double>("window t_begin");
        w.t_end = c.get<double>("window t_end");
        w.events_fired = c.get<std::uint64_t>("window events_fired");
        w.spans_spilled = c.get<std::uint64_t>("window spans_spilled");
        w.instants = c.get<std::uint64_t>("window instants");
        w.transfer_wait_core_s = c.get<double>("window transfer_wait");
        w.rescues = c.get<std::uint64_t>("window rescues");
        windows_.push_back(w);
        ++windows;
        break;
      }
      case RecordType::Footer: {
        if (record_at != footer_offset) {
          c.pos = record_at;
          c.fail("footer record at unexpected offset (trailer says " +
                 std::to_string(footer_offset) + ")");
        }
        footer_.transfer_wait_core_s = c.get<double>("footer transfer_wait");
        footer_.rescues = c.get<std::uint64_t>("footer rescues");
        footer_.span_records = c.get<std::uint64_t>("footer span count");
        footer_.instant_records =
            c.get<std::uint64_t>("footer instant count");
        footer_.window_records = c.get<std::uint64_t>("footer window count");
        footer_.open_spans = c.get<std::uint64_t>("footer open spans");
        saw_footer = true;
        break;
      }
      default:
        c.pos = record_at;
        c.fail("unknown record type " + std::to_string(type));
    }
    if (c.pos != payload_end) {
      c.fail("record payload size mismatch (declared " +
             std::to_string(payload) + ", consumed " +
             std::to_string(c.pos - record_at - kRecordPreludeBytes) + ")");
    }
  }
  if (!saw_footer) {
    c.fail("missing footer record");
  }
  if (spans != footer_.span_records || instants != footer_.instant_records ||
      windows != footer_.window_records) {
    c.fail("record counts disagree with footer (spans " +
           std::to_string(spans) + "/" +
           std::to_string(footer_.span_records) + ", instants " +
           std::to_string(instants) + "/" +
           std::to_string(footer_.instant_records) + ", windows " +
           std::to_string(windows) + "/" +
           std::to_string(footer_.window_records) + ")");
  }
  spans_.store_totals({footer_.transfer_wait_core_s, footer_.rescues,
                       footer_.open_spans});
}

}  // namespace tlb::stream
