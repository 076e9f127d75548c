#include "nanos/data_location.hpp"

#include <algorithm>
#include <map>

namespace tlb::nanos {

template <typename Visit>
void DataLocations::walk(std::uint64_t lo, std::uint64_t hi,
                         Visit&& visit) const {
  std::uint64_t cursor = lo;
  for (std::size_t i = runs_.first_ending_after(lo); cursor < hi; ++i) {
    if (i == runs_.size() || runs_[i].start >= hi) {
      visit(hi - cursor, home_);
      return;
    }
    const auto& run = runs_[i];
    if (run.start > cursor) {
      visit(run.start - cursor, home_);
      cursor = run.start;
    }
    const std::uint64_t end = std::min(run.end, hi);
    visit(end - cursor, run.payload);
    cursor = end;
  }
}

template <typename Moved>
void DataLocations::relocate(std::uint64_t lo, std::uint64_t hi, int node,
                             Moved&& moved) {
  // Gaps are home-resident, so they are filled with home before relabeling.
  const auto span = runs_.cover(lo, hi, home_);
  for (std::size_t i = span.first; i < span.last; ++i) {
    auto& run = runs_[i];
    if (run.payload == node) continue;
    moved(run.end - run.start, run.payload);
    run.payload = node;
  }
}

std::uint64_t DataLocations::missing_input_bytes(
    const std::vector<AccessRegion>& accesses, int node) const {
  std::uint64_t bytes = 0;
  for (const AccessRegion& a : accesses) {
    if (!a.reads() || a.size == 0) continue;
    walk(a.start, a.end(), [&](std::uint64_t b, int holder) {
      if (holder != node) bytes += b;
    });
  }
  return bytes;
}

void DataLocations::resident_input_bytes(
    const std::vector<AccessRegion>& accesses, const std::vector<int>& nodes,
    std::vector<std::uint64_t>& bytes) const {
  bytes.assign(nodes.size(), 0);
  for (const AccessRegion& a : accesses) {
    if (!a.reads() || a.size == 0) continue;
    walk(a.start, a.end(), [&](std::uint64_t b, int holder) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == holder) bytes[i] += b;
      }
    });
  }
}

void DataLocations::task_executed(const std::vector<AccessRegion>& accesses,
                                  int node) {
  for (const AccessRegion& a : accesses) {
    if (a.size == 0) continue;
    // Inputs were copied to `node` to run the task; outputs are produced
    // there. Either way the freshest copy of every accessed byte is now on
    // `node`. (For pure inputs the home copy also remains valid, but
    // tracking a single location is the conservative simplification: it
    // never under-prices a transfer for written data, and input re-reads
    // from the executing node are the common case the scheduler optimises.)
    if (a.writes()) relocate(a.start, a.end(), node, [](std::uint64_t, int) {});
  }
}

std::uint64_t DataLocations::pull(const std::vector<AccessRegion>& accesses,
                                  int node) {
  std::uint64_t bytes = 0;
  for (const AccessRegion& a : accesses) {
    if (a.size == 0) continue;
    relocate(a.start, a.end(), node,
             [&](std::uint64_t b, int /*holder*/) { bytes += b; });
  }
  return bytes;
}

std::vector<std::pair<int, std::uint64_t>> DataLocations::missing_by_source(
    const std::vector<AccessRegion>& accesses, int node) const {
  std::map<int, std::uint64_t> by_source;
  for (const AccessRegion& a : accesses) {
    if (!a.reads() || a.size == 0) continue;
    walk(a.start, a.end(), [&](std::uint64_t b, int holder) {
      if (holder != node) by_source[holder] += b;
    });
  }
  return {by_source.begin(), by_source.end()};
}

std::vector<std::pair<int, std::uint64_t>> DataLocations::pull_by_source(
    const std::vector<AccessRegion>& accesses, int node) {
  std::map<int, std::uint64_t> by_source;
  for (const AccessRegion& a : accesses) {
    if (a.size == 0) continue;
    relocate(a.start, a.end(), node,
             [&](std::uint64_t b, int holder) { by_source[holder] += b; });
  }
  return {by_source.begin(), by_source.end()};
}

int DataLocations::location_of(std::uint64_t addr) const {
  const std::size_t i = runs_.first_ending_after(addr);
  if (i < runs_.size() && runs_[i].start <= addr) return runs_[i].payload;
  return home_;
}

}  // namespace tlb::nanos
