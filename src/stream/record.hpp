// Binary record format of the span spill file (tlb::stream).
//
// Layout (all integers little-endian, doubles IEEE-754 binary64 in their
// native byte order — the file is a same-machine artifact, not a wire
// format):
//
//   [header]   8-byte magic "TLBSTRM1", u32 version, u32 reserved
//   [records]  repeated: u8 type, u32 payload_size, payload
//   [footer]   a Footer record (type 4): run aggregates + record counts
//   [trailer]  u64 footer_offset, 8-byte magic "TLBSTRME"
//
// Record types:
//   1 TaskSpan     — one finished (or end-of-run open) task lifecycle
//   2 Instant      — one timeline mark (f64 time, i32 node slot = -1,
//                    u32 label length, label), spilled as it is made
//   3 MetricWindow — one windowed snapshot of engine/telemetry counters,
//                    written at each global barrier
//   4 Footer       — aggregates (transfer-wait integral, rescue count)
//                    plus the record counts a reader validates against
//
// The trailer lets a reader seek straight to the footer; a missing or
// damaged trailer (crash mid-run) is detected before any record is
// trusted. Readers report malformed input with the exact byte offset.
#pragma once

#include <cstdint>

namespace tlb::stream {

inline constexpr char kHeaderMagic[8] = {'T', 'L', 'B', 'S',
                                         'T', 'R', 'M', '1'};
inline constexpr char kTrailerMagic[8] = {'T', 'L', 'B', 'S',
                                          'T', 'R', 'M', 'E'};
inline constexpr std::uint32_t kFormatVersion = 1;

enum class RecordType : std::uint8_t {
  TaskSpan = 1,
  Instant = 2,
  MetricWindow = 3,
  Footer = 4,
};

/// Fixed-size prelude of every record: the type tag and the payload size
/// that follows it.
inline constexpr std::size_t kRecordPreludeBytes =
    sizeof(std::uint8_t) + sizeof(std::uint32_t);

/// One windowed snapshot of cumulative telemetry counters, captured at a
/// global barrier. Counters are cumulative-at-capture (not per-window
/// deltas) so a truncated stream still yields correct totals up to the
/// last intact window; readers difference consecutive rows for rates.
struct MetricWindow {
  int epoch = -1;              ///< barrier epoch (iteration index)
  double t_begin = 0.0;        ///< window start (previous capture / run start)
  double t_end = 0.0;          ///< capture time
  std::uint64_t events_fired = 0;   ///< engine events fired so far
  std::uint64_t spans_spilled = 0;  ///< finished spans written so far
  std::uint64_t instants = 0;       ///< instant events written so far
  double transfer_wait_core_s = 0.0;  ///< transfer-wait integral so far
  std::uint64_t rescues = 0;          ///< rescues observed so far
};

/// Footer payload: the run aggregates obs::SpanCollector keeps in memory,
/// plus the record counts the reader cross-checks while scanning.
struct Footer {
  double transfer_wait_core_s = 0.0;
  std::uint64_t rescues = 0;
  std::uint64_t span_records = 0;
  std::uint64_t instant_records = 0;
  std::uint64_t window_records = 0;
  std::uint64_t open_spans = 0;  ///< spans still open at close (no done_at)
};

}  // namespace tlb::stream
