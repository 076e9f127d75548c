#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tlb::sim {

EventId EventQueue::push(SimTime t, Callback cb, OwnerId owner) {
  const EventId id = next_id_++;
  pending_.push_back(true);
  ++live_;
  // Charged per physical entry; released in pop()/skip_cancelled()/dtor.
  prof::alloc_note(prof::AllocTag::SimEvent, sizeof(Entry));
  heap_push(Entry{t, id, owner, std::move(cb)});
  return id;
}

void EventQueue::cancel(EventId id) {
  // Unknown, fired and already-cancelled ids are no-ops; a live event
  // leaves its entry queued as a tombstone for skip_cancelled().
  if (id >= next_id_ || !is_pending(id)) return;
  pending_[static_cast<std::size_t>(id)] = false;
  --live_;
}

void EventQueue::heap_push(Entry e) {
  std::size_t i = heap_.size();
  heap_.emplace_back();  // hole; filled below
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(e);
}

void EventQueue::heap_pop_root() {
  assert(!heap_.empty());
  Entry last = std::move(heap_.back());
  heap_.pop_back();
  if (heap_.empty()) return;
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(last);
}

void EventQueue::skip_cancelled() {
  while (!heap_.empty() && !is_pending(heap_.front().id)) {
    prof::free_note(prof::AllocTag::SimEvent, sizeof(Entry));
    heap_pop_root();
  }
}

EventQueue::Popped EventQueue::pop() {
  skip_cancelled();
  assert(!heap_.empty() && "pop() on empty queue");
  --live_;
  prof::free_note(prof::AllocTag::SimEvent, sizeof(Entry));
  Entry& root = heap_.front();
  pending_[static_cast<std::size_t>(root.id)] = false;
  Popped popped{root.time, root.owner, std::move(root.cb)};
  heap_pop_root();
  return popped;
}

}  // namespace tlb::sim
