#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tlb::sim {

EventId EventQueue::push(SimTime t, Callback cb) {
  const EventId id = next_id_++;
  pending_.push_back(true);
  ++live_;
  // Charged per physical entry; released in pop()/skip_cancelled()/dtor.
  prof::alloc_note(prof::AllocTag::SimEvent, sizeof(Entry));
  if (bucket_has_entry() && t == bucket_time_) {
    // Extend the in-flight same-time batch; ids stay increasing, so
    // front-to-back consumption is FIFO.
    bucket_.push_back(Entry{t, id, std::move(cb)});
  } else if (!bucket_has_entry() && t == last_popped_) {
    // after(0)-style push at the current instant: open a fresh batch
    // instead of paying a heap sift. Any same-time entries already in the
    // heap were pushed earlier (smaller id) and win the merge in pop().
    bucket_.clear();
    bucket_head_ = 0;
    bucket_time_ = t;
    bucket_.push_back(Entry{t, id, std::move(cb)});
  } else {
    heap_push(Entry{t, id, std::move(cb)});
  }
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
  while (bucket_has_entry() && !is_pending(bucket_[bucket_head_].id)) {
    prof::free_note(prof::AllocTag::SimEvent, sizeof(Entry));
    bucket_[bucket_head_].cb = nullptr;  // release captures eagerly
    ++bucket_head_;
  }
  if (!bucket_has_entry() && !bucket_.empty()) {
    bucket_.clear();
    bucket_head_ = 0;
  }
}

SimTime EventQueue::next_time() const {
  auto* self = const_cast<EventQueue*>(this);
  self->skip_cancelled();
  const bool heap_ok = !heap_.empty();
  const bool bucket_ok = bucket_has_entry();
  assert((heap_ok || bucket_ok) && "next_time() on empty queue");
  if (!bucket_ok) return heap_.front().time;
  if (!heap_ok) return bucket_time_;
  return earlier(bucket_[bucket_head_], heap_.front()) ? bucket_time_
                                                       : heap_.front().time;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  skip_cancelled();
  const bool heap_ok = !heap_.empty();
  const bool bucket_ok = bucket_has_entry();
  assert((heap_ok || bucket_ok) && "pop() on empty queue");
  --live_;
  prof::free_note(prof::AllocTag::SimEvent, sizeof(Entry));
  if (bucket_ok &&
      (!heap_ok || earlier(bucket_[bucket_head_], heap_.front()))) {
    Entry& e = bucket_[bucket_head_];
    ++bucket_head_;
    pending_[static_cast<std::size_t>(e.id)] = false;
    last_popped_ = e.time;
    Callback cb = std::move(e.cb);
    if (!bucket_has_entry()) {
      bucket_.clear();
      bucket_head_ = 0;
    }
    return {last_popped_, std::move(cb)};
  }
  pending_[static_cast<std::size_t>(heap_.front().id)] = false;
  last_popped_ = heap_.front().time;
  Callback cb = std::move(heap_.front().cb);
  heap_pop_root();
  return {last_popped_, std::move(cb)};
}

}  // namespace tlb::sim
