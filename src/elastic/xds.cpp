#include "elastic/xds.hpp"

#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace tlb::elastic {

const char* to_string(PushStatus s) {
  switch (s) {
    case PushStatus::Acked: return "acked";
    case PushStatus::Nacked: return "nacked";
    case PushStatus::StaleVersion: return "stale-version";
    case PushStatus::UnknownType: return "unknown-type";
  }
  return "?";
}

void ControlPlane::subscribe(const std::string& type_url, ApplyFn apply) {
  if (type_url.empty() || apply == nullptr) {
    throw std::invalid_argument("ControlPlane: empty type_url or applier");
  }
  const auto [it, inserted] = subs_.emplace(type_url, Subscription{});
  if (!inserted) {
    throw std::invalid_argument("ControlPlane: duplicate subscription for " +
                                type_url);
  }
  it->second.apply = std::move(apply);
}

PushResult ControlPlane::push(const Resource& resource) {
  ++pushes_;
  PushResult result;
  const auto it = subs_.find(resource.type_url);
  if (it == subs_.end()) {
    result.status = PushStatus::UnknownType;
    result.detail = "no subscriber for \"" + resource.type_url + "\"";
    return result;
  }
  Subscription& sub = it->second;
  if (sub.acked.has_value() && resource.version <= sub.acked->version) {
    result.status = PushStatus::StaleVersion;
    result.detail = "version " + std::to_string(resource.version) +
                    " <= acked " + std::to_string(sub.acked->version);
    return result;
  }
  const std::string error = sub.apply(resource);
  if (error.empty()) {
    sub.acked = resource;
    ++acks_;
    result.status = PushStatus::Acked;
    return result;
  }
  ++nacks_;
  result.status = PushStatus::Nacked;
  result.detail = error;
  if (sub.acked.has_value()) {
    // Roll back: re-apply the last good resource. The applier contract
    // (NACK leaves state unchanged, re-apply of an ACKed resource
    // succeeds) makes this a no-op unless the applier is buggy — assert
    // so a contract violation is loud in debug builds.
    const std::string rollback_error = sub.apply(*sub.acked);
    assert(rollback_error.empty() &&
           "rollback of an ACKed resource must succeed");
    (void)rollback_error;
    ++rollbacks_;
    result.rolled_back = true;
  }
  return result;
}

std::optional<Resource> ControlPlane::last_acked(
    const std::string& type_url) const {
  const auto it = subs_.find(type_url);
  if (it == subs_.end()) return std::nullopt;
  return it->second.acked;
}

std::map<std::string, std::string> parse_kv(const std::string& payload) {
  std::map<std::string, std::string> kv;
  std::size_t i = 0;
  while (i < payload.size()) {
    while (i < payload.size() && std::isspace(
               static_cast<unsigned char>(payload[i]))) {
      ++i;
    }
    if (i >= payload.size()) break;
    std::size_t end = i;
    while (end < payload.size() && !std::isspace(
               static_cast<unsigned char>(payload[end]))) {
      ++end;
    }
    const std::string token = payload.substr(i, end - i);
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("parse_kv: malformed token \"" + token +
                                  "\" (expected key=value)");
    }
    kv[token.substr(0, eq)] = token.substr(eq + 1);
    i = end;
  }
  return kv;
}

double kv_double(const std::map<std::string, std::string>& kv,
                 const std::string& key, double fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    throw std::invalid_argument("kv_double: \"" + it->second +
                                "\" is not a number (key " + key + ")");
  }
  return value;
}

int kv_int(const std::map<std::string, std::string>& kv,
           const std::string& key, int fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  const long value = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0') {
    throw std::invalid_argument("kv_int: \"" + it->second +
                                "\" is not an integer (key " + key + ")");
  }
  return static_cast<int>(value);
}

}  // namespace tlb::elastic
