// Pinned config-space sweep: net on/off x DetectionMode::{Oracle,
// Heartbeat} x {no fault, a loss + jitter window, a helper crash}, cycling
// the five scheduling policies. Each scenario checks the invariants of
// config_sweep.hpp (exactly-once completion, exact iteration count,
// non-negative iteration times, alloc tags back to zero, same seed same
// schedule, record-only toggles leave the schedule bit-identical) and
// pins its schedule fingerprint, in the style of GoldenSchedule.*.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "config_sweep.hpp"

namespace tlb::sweep {
namespace {

struct Pinned {
  bool net;
  resil::DetectionMode detection;
  Fault fault;
  std::uint64_t fingerprint;
};

using resil::DetectionMode;

// Index i of this table runs sched policy kSchedPolicies[i % 5]. The
// fingerprints were captured when the sweep was added; like the goldens,
// a deliberate re-pin goes in a commit of its own.
constexpr Pinned kPins[] = {
    {false, DetectionMode::Oracle, Fault::None, 0x14ae4ad58e137aeaull},
    {false, DetectionMode::Oracle, Fault::LossJitter, 0x8c3221863b7e0944ull},
    {false, DetectionMode::Oracle, Fault::Crash, 0x3358b5de00362e28ull},
    {false, DetectionMode::Heartbeat, Fault::None, 0x7062eb771be7cf7aull},
    {false, DetectionMode::Heartbeat, Fault::LossJitter, 0x2eb661fae355aa05ull},
    {false, DetectionMode::Heartbeat, Fault::Crash, 0xbd67d8b6fd54bdcdull},
    {true, DetectionMode::Oracle, Fault::None, 0x8a29465f7f4d1206ull},
    {true, DetectionMode::Oracle, Fault::LossJitter, 0x992aa2bdae1d10f0ull},
    {true, DetectionMode::Oracle, Fault::Crash, 0x862bf8452ed1d470ull},
    {true, DetectionMode::Heartbeat, Fault::None, 0xbbdd061447182ba6ull},
    {true, DetectionMode::Heartbeat, Fault::LossJitter, 0x5976bba51e764392ull},
    {true, DetectionMode::Heartbeat, Fault::Crash, 0x2bc3b4ef00f91225ull},
};

TEST(ConfigSweep, PinnedScenariosHoldInvariantsAndFingerprints) {
  const std::string stream_path = temp_stream_path("config_sweep");
  int index = 0;
  for (const Pinned& pin : kPins) {
    Scenario s;
    s.net = pin.net;
    s.detection = pin.detection;
    s.fault = pin.fault;
    s.sched = kSchedPolicies[index % 5];
    ++index;
    SCOPED_TRACE(describe(s));
    const std::uint64_t fp = check_scenario(s, stream_path);
    EXPECT_EQ(fp, pin.fingerprint)
        << "fingerprint 0x" << std::hex << fp << " of " << describe(s);
  }
}

}  // namespace
}  // namespace tlb::sweep
