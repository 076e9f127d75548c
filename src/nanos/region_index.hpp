// Flat index of byte ranges of one apprank's address space.
//
// A sorted vector of disjoint runs [start, end), each carrying a payload:
// the holder node for DataLocations, the last writer and readers for
// DependencyGraph. Lookups are binary searches; bytes outside every run
// are "untouched" and each client gives them its own meaning (home-resident,
// no dependencies).
//
// The index never merges runs. Once an access boundary exists it stays, so
// a workload that touches the same ranges every iteration splits them once
// and afterwards only relabels runs in place. No client's answer depends on
// where run boundaries fall: queries sum bytes per payload or take the union
// of payloads over a range.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tlb::nanos {

template <typename Payload>
class RegionIndex {
 public:
  struct Run {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    Payload payload{};
  };

  /// Index range [first, last) of runs.
  struct Span {
    std::size_t first = 0;
    std::size_t last = 0;
  };

  /// Index of the first run ending after `addr` (the run holding `addr`,
  /// or else the next one); size() when there is none.
  [[nodiscard]] std::size_t first_ending_after(std::uint64_t addr) const {
    return static_cast<std::size_t>(
        std::upper_bound(runs_.begin(), runs_.end(), addr,
                         [](std::uint64_t a, const Run& r) { return a < r.end; }) -
        runs_.begin());
  }

  /// Makes runs tile [lo, hi) exactly: splits the run straddling lo and the
  /// one straddling hi (both halves keep the payload) and fills every gap
  /// inside [lo, hi) with a run carrying `gap`. Returns the runs that now
  /// tile [lo, hi), in address order. Requires lo < hi.
  Span cover(std::uint64_t lo, std::uint64_t hi, const Payload& gap) {
    assert(lo < hi);
    std::size_t i = first_ending_after(lo);
    if (i < runs_.size() && runs_[i].start < lo) {
      split(i, lo);
      ++i;
    }
    const std::size_t first = i;
    std::uint64_t cursor = lo;
    while (cursor < hi) {
      if (i == runs_.size() || runs_[i].start > cursor) {
        const std::uint64_t gap_end =
            i == runs_.size() ? hi : std::min(runs_[i].start, hi);
        runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i),
                     Run{cursor, gap_end, gap});
      } else if (runs_[i].end > hi) {
        split(i, hi);
      }
      cursor = runs_[i].end;
      ++i;
    }
    return {first, i};
  }

  [[nodiscard]] Run& operator[](std::size_t i) { return runs_[i]; }
  [[nodiscard]] const Run& operator[](std::size_t i) const { return runs_[i]; }
  [[nodiscard]] std::size_t size() const { return runs_.size(); }

 private:
  /// Splits run i at `at` (strictly inside it) into [start, at) and
  /// [at, end), both with run i's payload.
  void split(std::size_t i, std::uint64_t at) {
    assert(runs_[i].start < at && at < runs_[i].end);
    Run tail{at, runs_[i].end, runs_[i].payload};
    runs_[i].end = at;
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                 std::move(tail));
  }

  std::vector<Run> runs_;
};

}  // namespace tlb::nanos
