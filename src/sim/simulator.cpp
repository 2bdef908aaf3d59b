#include "sim/simulator.h"

namespace iotsec::sim {

detail::Slot* EventHandle::Live() const {
  if (!table_ || slot_ >= table_->size) return nullptr;
  detail::Slot& s = (*table_)[slot_];
  if (s.generation != generation_ || s.cancelled) return nullptr;
  return &s;
}

void EventHandle::Cancel() {
  detail::Slot* s = Live();
  if (s == nullptr) return;
  // The heap entry stays until popped (a recurring event cancelled from
  // inside its own callback has none; the fire path settles that count).
  s->cancelled = true;
  ++table_->cancelled_queued;
}

bool EventHandle::Pending() const { return Live() != nullptr; }

Simulator::~Simulator() {
  // Detach the chunks first: handles then read "not pending", and
  // callbacks whose captures cancel handles on destruction find nothing.
  auto chunks = std::move(slots_->chunks);
  slots_->chunks.clear();
  slots_->size = 0;
}

std::uint32_t Simulator::AcquireSlot(Callback fn) {
  std::uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    detail::SlotTable& table = *slots_;
    id = table.size++;
    if ((id & (detail::SlotTable::kChunkSize - 1)) == 0) {
      table.chunks.push_back(
          std::make_unique<detail::Slot[]>(detail::SlotTable::kChunkSize));
    }
  }
  (*slots_)[id].fn = std::move(fn);
  return id;
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
  detail::Slot& s = (*slots_)[slot];
  s.fn.Reset();
  ++s.generation;
  s.recurring = false;
  s.cancelled = false;
  free_slots_.push_back(slot);
}

void Simulator::Push(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

Simulator::Entry Simulator::PopEarliest() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

EventHandle Simulator::At(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  const std::uint32_t slot = AcquireSlot(std::move(fn));
  Push({when, seq_++, slot});
  return Handle(slot);
}

EventHandle Simulator::Every(SimDuration period, Callback fn) {
  const std::uint32_t slot = AcquireSlot(std::move(fn));
  detail::Slot& s = (*slots_)[slot];
  s.recurring = true;
  s.period = period;
  Push({now_ + period, seq_++, slot});
  return Handle(slot);
}

void Simulator::PopAndFire() {
  const Entry e = PopEarliest();
  now_ = e.when;
  detail::Slot& s = (*slots_)[e.slot];
  if (s.cancelled) {
    --slots_->cancelled_queued;
    ReleaseSlot(e.slot);
    return;
  }
  if (!s.recurring) {
    ++s.generation;  // its handles read "fired" while the callback runs
    s.fn();
    ReleaseSlot(e.slot);
  } else {
    // The ticker stays pending (and cancellable) while it runs; its next
    // tick is queued after whatever the callback scheduled.
    s.fn();
    if (s.cancelled) {
      --slots_->cancelled_queued;  // Cancel() counted a queued entry
      ReleaseSlot(e.slot);
    } else {
      Push({now_ + s.period, seq_++, e.slot});
    }
  }
  ++processed_;
}

void Simulator::Run() {
  stopped_ = false;
  while (!heap_.empty() && !stopped_) {
    PopAndFire();
  }
}

void Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  while (!heap_.empty() && !stopped_ && heap_.front().when <= deadline) {
    PopAndFire();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace iotsec::sim
