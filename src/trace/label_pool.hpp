// Interned mark labels (tlb::trace).
//
// A LabelPool stores each distinct label once and hands out views of its
// own copy. The set is node-based, so a rehash moves no string: a view
// stays valid for the pool's lifetime however many labels come later.
// The timeline's mark list (trace::Recorder) keeps such views, so a label
// that repeats (a fabric link's congestion mark) costs one entry, not one
// string per mark. Label bytes are charged to the trace.mark alloc tag.
// A pool is not copyable, and neither is a recorder that holds one: its
// views would point into the original.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "prof/prof.hpp"

namespace tlb::trace {

class LabelPool {
 public:
  LabelPool() = default;
  ~LabelPool() {
    if (bytes_ > 0) prof::free_note(prof::AllocTag::TraceMark, bytes_);
  }
  LabelPool(const LabelPool&) = delete;
  LabelPool& operator=(const LabelPool&) = delete;

  /// The pooled copy of `label`, added on first sight.
  std::string_view intern(std::string_view label) {
    auto it = labels_.find(label);
    if (it == labels_.end()) {
      it = labels_.emplace(label).first;
      bytes_ += label.size();
      prof::alloc_note(prof::AllocTag::TraceMark, label.size());
    }
    return *it;
  }

  /// Distinct labels held.
  [[nodiscard]] std::size_t size() const { return labels_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_set<std::string, Hash, std::equal_to<>> labels_;
  std::size_t bytes_ = 0;
};

}  // namespace tlb::trace
