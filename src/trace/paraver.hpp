// Paraver trace export.
//
// BSC's Paraver is the tool the paper's trace figures were produced with.
// This exporter writes the recorder's busy-core and owned-core series as a
// Paraver event trace (.prv) plus the matching row-label file (.row): one
// Paraver "thread" per (node, apprank) pair, with event type 90000001
// carrying the busy-core count and 90000002 the owned-core count. Typed
// timeline marks (scheduler steer/suppress decisions, fabric congestion
// onsets/clearances) export as the 90000003..90000006 punctual event
// types on thread 1; their values carry the worker or link id. Generic and
// fault-injection marks have no Paraver type and are skipped. The .pcf
// config file names every event type so Paraver's info panels are
// readable. Times are nanoseconds.
#pragma once

#include <string>

#include "trace/recorder.hpp"

namespace tlb::trace {

inline constexpr int kParaverBusyEvent = 90000001;
inline constexpr int kParaverOwnedEvent = 90000002;
inline constexpr int kParaverSchedSteerEvent = 90000003;
inline constexpr int kParaverSchedSuppressEvent = 90000004;
inline constexpr int kParaverNetCongestionEvent = 90000005;
inline constexpr int kParaverNetClearedEvent = 90000006;

/// The .prv trace body for the recorded run ending at `end`. Throws
/// std::logic_error for a recorder whose marks went to a spill
/// (Recorder::marks_spilled): the spill keeps no mark kinds or values, so
/// the trace would silently lose its typed marks.
std::string to_paraver(const Recorder& recorder, sim::SimTime end);

/// The .row file naming each Paraver thread "node N apprank A".
std::string paraver_row_labels(const Recorder& recorder);

/// The .pcf configuration naming every event type emitted by to_paraver.
std::string paraver_pcf();

}  // namespace tlb::trace
