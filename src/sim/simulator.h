// Discrete-event simulation engine.
//
// Everything in IoTSec — links, devices, environment dynamics, controllers,
// µmbox boot delays — runs on one virtual clock owned by a Simulator.
// Events fire in (time, insertion-order) order, which makes runs fully
// deterministic for a fixed seed.
//
// The event core allocates nothing per event in steady state: callbacks
// live in pooled slots (inline storage, see sim::Callback), the queue is a
// 4-ary min-heap of small (when, seq, slot) entries, and a handle is a
// generation-checked reference to a slot rather than its own heap object.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace iotsec::sim {

namespace detail {

/// One pooled event: the callback plus what its handles need to know.
struct Slot {
  Callback fn;
  SimDuration period = 0;        // Every(): re-queue interval
  // Bumped each time the event is done; 64 bits, so a handle kept for
  // the whole run can never alias a later occupant of its slot.
  std::uint64_t generation = 0;
  bool recurring = false;
  bool cancelled = false;
};

/// The slot pool, shared between a simulator and its handles so a handle
/// outliving the simulator stays harmless. Slots sit in fixed-size chunks
/// and never move once created, so a callback runs in place even while it
/// schedules more events.
struct SlotTable {
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Slot& operator[](std::uint32_t i) {
    return chunks[i >> kChunkBits][i & (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks;
  std::uint32_t size = 0;  // slots created so far
  // Cancelled events whose heap entry has not popped yet; PendingEvents()
  // subtracts them.
  std::uint64_t cancelled_queued = 0;
};

}  // namespace detail

/// Handle for a scheduled event; lets the owner cancel it before it fires.
/// It names (slot, generation): once the event has fired (or was
/// cancelled and popped) its slot is recycled under a new generation, so
/// a stale handle reads "not pending" and cannot touch the new occupant.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly.
  void Cancel();

  /// True if the event is still scheduled (not fired, not cancelled).
  [[nodiscard]] bool Pending() const;

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::SlotTable> table, std::uint32_t slot,
              std::uint64_t generation)
      : table_(std::move(table)), slot_(slot), generation_(generation) {}

  /// The slot this handle still refers to, or nullptr once it is done.
  [[nodiscard]] detail::Slot* Live() const;

  std::shared_ptr<detail::SlotTable> table_;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (clamped to Now()).
  EventHandle At(SimTime when, Callback fn);

  /// Schedules `fn` `delay` after Now().
  EventHandle After(SimDuration delay, Callback fn) {
    return At(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `period`, starting one period from now, until the
  /// returned handle is cancelled. Stop() does not end a ticker: it stays
  /// queued (and cancellable) for the next run.
  EventHandle Every(SimDuration period, Callback fn);

  /// Runs until the queue drains or Stop() is called.
  void Run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances the clock to the deadline.
  void RunUntil(SimTime deadline);

  /// Convenience: RunUntil(Now() + d).
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  /// Ends the run loop after the current event returns. Queued events,
  /// tickers included, stay queued.
  void Stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t EventsProcessed() const { return processed_; }

  /// Timestamp of the earliest queued event, or SimTime max when the queue
  /// is empty. Lets a lockstep scheduler skip quanta no shard has work in.
  [[nodiscard]] SimTime NextEventTime() const {
    return heap_.empty() ? ~SimTime{0} : heap_.front().when;
  }

  /// Live count of events that will still fire: cancelled events stay in
  /// the heap until popped, but are excluded here, so admission and
  /// backpressure logic reading this sees the real backlog.
  [[nodiscard]] std::size_t PendingEvents() const {
    return heap_.size() - static_cast<std::size_t>(slots_->cancelled_queued);
  }

 private:
  /// Heap entry: 24 bytes; the callback stays put in its slot.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool Earlier(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::uint32_t AcquireSlot(Callback fn);
  /// Destroys the slot's callback and returns the slot to the free list.
  void ReleaseSlot(std::uint32_t slot);
  EventHandle Handle(std::uint32_t slot) {
    return EventHandle(slots_, slot, (*slots_)[slot].generation);
  }
  void Push(Entry e);
  Entry PopEarliest();
  void PopAndFire();

  std::shared_ptr<detail::SlotTable> slots_ =
      std::make_shared<detail::SlotTable>();
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // 4-ary min-heap on (when, seq)
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace iotsec::sim
