// xDS-style hot-swap control plane (tlb::elastic).
//
// Envoy's dynamic-resource model, adapted: a management server pushes
// versioned, typed configuration resources (node-set bounds, admission
// knobs); the data plane applies each push and answers
// ACK or NACK. A NACKed push is rolled back — the last ACKed resource of
// that type is re-applied — so an invalid config can never wedge the
// running system, and no push ever requires a process restart.
//
// A Resource is (type_url, version, payload):
//   - type_url names the resource type ("tlb.svc.admission", ...); each
//     type has exactly one subscribed applier.
//   - version must be strictly increasing per type; a stale or replayed
//     version is NACKed without invoking the applier (xDS's monotone
//     version_info discipline).
//   - payload is an opaque string the applier parses; the simple
//     "key=value key=value" form is supported by parse_kv() below.
//
// The appliers themselves live with the subsystems they configure (the
// svc::JobManager registers one per supported type); this class only
// implements the version/ACK/NACK/rollback discipline and its counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tlb::elastic {

struct Resource {
  std::string type_url;
  std::uint64_t version = 0;
  std::string payload;
};

enum class PushStatus {
  Acked,        ///< applied and acknowledged
  Nacked,       ///< applier rejected it (rolled back if possible)
  StaleVersion, ///< version not newer than the last ACKed one
  UnknownType,  ///< no subscriber for this type_url
};

[[nodiscard]] const char* to_string(PushStatus s);

struct PushResult {
  PushStatus status = PushStatus::UnknownType;
  /// NACK reason (applier's error message) or stale/unknown detail.
  std::string detail;
  /// True when a NACK re-applied the previous ACKed resource. False when
  /// there was nothing to roll back to (first push of the type) — the
  /// applier must reject without side effects in that case.
  bool rolled_back = false;
};

class ControlPlane {
 public:
  /// Applier contract: return "" to ACK; any non-empty string NACKs with
  /// that reason and MUST leave the target state unchanged (validate
  /// before mutate). Re-applying an already-ACKed resource must succeed.
  using ApplyFn = std::function<std::string(const Resource&)>;

  /// Registers the applier for one resource type. Throws
  /// std::invalid_argument on a duplicate type_url.
  void subscribe(const std::string& type_url, ApplyFn apply);

  /// Pushes one resource through the version/ACK/NACK discipline.
  PushResult push(const Resource& resource);

  /// Last ACKed resource of a type, or nullopt before the first ACK.
  [[nodiscard]] std::optional<Resource> last_acked(
      const std::string& type_url) const;

  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t acks() const { return acks_; }
  [[nodiscard]] std::uint64_t nacks() const { return nacks_; }
  [[nodiscard]] std::uint64_t rollbacks() const { return rollbacks_; }

 private:
  struct Subscription {
    ApplyFn apply;
    std::optional<Resource> acked;
  };
  std::map<std::string, Subscription> subs_;
  std::uint64_t pushes_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t nacks_ = 0;
  std::uint64_t rollbacks_ = 0;
};

/// Parses a "key=value key=value ..." payload (whitespace-separated).
/// Duplicate keys keep the last value. Throws std::invalid_argument on a
/// token without '='.
[[nodiscard]] std::map<std::string, std::string> parse_kv(
    const std::string& payload);

/// Strict double / int parsers for applier validation: the whole token
/// must parse, else std::invalid_argument naming `key`.
[[nodiscard]] double kv_double(const std::map<std::string, std::string>& kv,
                               const std::string& key, double fallback);
[[nodiscard]] int kv_int(const std::map<std::string, std::string>& kv,
                         const std::string& key, int fallback);

}  // namespace tlb::elastic
