#include "dlb/core_registry.hpp"

#include <bit>
#include <cassert>
#include <limits>

namespace tlb::dlb {

NodeCores::NodeCores(int core_count, WorkerId initial_owner)
    : cores_(static_cast<std::size_t>(core_count)), bits_(words(), 0) {
  assert(core_count > 0 &&
         core_count <= std::numeric_limits<std::int16_t>::max());
  const Slot s = slot(initial_owner);
  for (int i = 0; i < core_count; ++i) {
    Core& c = cores_[static_cast<std::size_t>(i)];
    c.owner = s;
    c.lease = s;
    account(i, c, true);
  }
}

void NodeCores::set_owner(int core, WorkerId new_owner) {
  Core c = at(core);
  const Slot from = c.owner;
  const Slot to = slot(new_owner);
  if (from == to) return;
  c.owner = to;
  if (!c.running && (c.lease == from || c.lease == kNoSlot)) {
    // Idle and held by the old owner or the pool: the new owner takes the
    // lease now.
    c.lease = to;
    c.pending = false;
  } else {
    // Borrowed or mid-task (whoever is running): the lessee keeps the
    // core, which passes to the new owner at the next release or task
    // boundary, unless the lessee is the new owner itself.
    c.pending = c.lease != to;
  }
  update(core, c);
}

void NodeCores::lend(int core) {
  Core c = at(core);
  assert(c.lease == c.owner && "only the owner's lease can be lent");
  assert(!c.running && "cannot lend a running core");
  c.lease = kNoSlot;
  update(core, c);
}

bool NodeCores::try_borrow(int core, WorkerId borrower) {
  Core c = at(core);
  if (c.lease != kNoSlot || c.running) return false;
  c.lease = slot(borrower);
  update(core, c);
  return true;
}

void NodeCores::release_borrowed(int core) {
  Core c = at(core);
  assert(c.lease != kNoSlot && c.lease != c.owner &&
         "release_borrowed requires a borrower lease");
  assert(!c.running);
  c.lease = c.pending ? c.owner : kNoSlot;  // pending transfer, else pool
  c.pending = false;
  update(core, c);
}

void NodeCores::reclaim(int core) {
  Core c = at(core);
  if (c.lease == c.owner) return;  // already ours
  if (!c.running) {
    c.lease = c.owner;
    c.pending = false;
  } else {
    c.pending = true;
  }
  update(core, c);
}

void NodeCores::task_started(int core) {
  Core c = at(core);
  assert(c.lease != kNoSlot && "task on an unleased core");
  assert(!c.running && "core already running a task");
  c.running = true;
  update(core, c);
}

WorkerId NodeCores::task_finished(int core) {
  Core c = at(core);
  assert(c.running);
  c.running = false;
  if (c.pending) {
    c.lease = c.owner;
    c.pending = false;
  }
  update(core, c);
  return worker(c.lease);
}

int NodeCores::owned_count(WorkerId w) const {
  const Slot s = find_slot(w);
  return s == kNoSlot ? 0 : tallies_[static_cast<std::size_t>(s)].owned;
}

int NodeCores::idle_leased_count(WorkerId w) const {
  const Slot s = find_slot(w);
  return s == kNoSlot ? 0 : tallies_[static_cast<std::size_t>(s)].idle_leased;
}

int NodeCores::reclaimable_count(WorkerId w) const {
  const Slot s = find_slot(w);
  return s == kNoSlot ? 0 : tallies_[static_cast<std::size_t>(s)].reclaimable;
}

int NodeCores::next_idle_leased(WorkerId w, int from) const {
  const Slot s = find_slot(w);
  return s == kNoSlot ? -1 : next_set(1 + static_cast<std::size_t>(s), from);
}

int NodeCores::next_pooled(int from) const { return next_set(0, from); }

void NodeCores::update(int core, const Core& next) {
  Core& c = cores_.at(static_cast<std::size_t>(core));
  account(core, c, false);
  c = next;
  account(core, c, true);
}

void NodeCores::account(int core, const Core& c, bool add) {
  const int sign = add ? 1 : -1;
  Tally& own = tallies_[static_cast<std::size_t>(c.owner)];
  own.owned += sign;
  if (c.lease != c.owner && !c.pending) own.reclaimable += sign;

  std::size_t row = 0;  // pooled (never running)
  if (c.lease != kNoSlot) {
    if (c.running) return;
    tallies_[static_cast<std::size_t>(c.lease)].idle_leased += sign;
    row = 1 + static_cast<std::size_t>(c.lease);
  }
  std::uint64_t& word =
      bits_[row * words() + static_cast<std::size_t>(core) / 64];
  const std::uint64_t bit = std::uint64_t{1} << (core % 64);
  assert(((word & bit) != 0) != add && "index out of step with core state");
  word ^= bit;
}

NodeCores::Slot NodeCores::find_slot(WorkerId w) const {
  for (std::size_t s = 0; s < tallies_.size(); ++s) {
    if (tallies_[s].worker == w) return static_cast<Slot>(s);
  }
  return kNoSlot;
}

NodeCores::Slot NodeCores::slot(WorkerId w) {
  assert(w != kNoWorker);
  const Slot s = find_slot(w);
  if (s != kNoSlot) return s;
  assert(tallies_.size() <
         static_cast<std::size_t>(std::numeric_limits<Slot>::max()));
  // Exact growth: a node sees a handful of workers over its lifetime.
  tallies_.reserve(tallies_.size() + 1);
  tallies_.push_back(Tally{w, 0, 0, 0});
  bits_.reserve(bits_.size() + words());
  bits_.resize(bits_.size() + words(), 0);
  return static_cast<Slot>(tallies_.size() - 1);
}

int NodeCores::next_set(std::size_t row, int from) const {
  if (from >= core_count()) return -1;
  const std::size_t n = words();
  const std::uint64_t* bits = bits_.data() + row * n;
  std::size_t k = static_cast<std::size_t>(from) / 64;
  std::uint64_t word = bits[k] & (~std::uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++k == n) return -1;
    word = bits[k];
  }
  return static_cast<int>(k * 64) + std::countr_zero(word);
}

void NodeCores::check_invariants() const {
  for (const Core& c : cores_) {
    assert(c.owner != kNoSlot && "ownerless core");
    if (c.running) {
      assert(c.lease != kNoSlot && "running core must be leased");
    }
    if (c.pending) {
      assert(c.lease != c.owner && "pending transfer to current lessee");
    }
    (void)c;
  }
}

}  // namespace tlb::dlb
