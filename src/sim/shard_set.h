// Sharded parallel execution of N discrete-event simulators.
//
// The single-threaded sim::Simulator caps aggregate throughput at one
// core no matter how cheap each packet is. A ShardSet runs N simulators
// (shards) in lockstep time quanta: within a quantum every shard with
// work due executes its own event queue on its own worker thread,
// touching only shard-local state; at the quantum boundary the driver
// waits for those workers, the cross-shard mailboxes are drained in a
// canonical order, and the next quantum begins.
//
// The quantum is a conservative lookahead: it must be no larger than the
// minimum latency of any cross-shard interaction (for links, the
// propagation delay), so an event sent during quantum [t, t+Δ) can only
// be scheduled at or after t+Δ — i.e. never into the quantum a peer is
// concurrently executing. That makes runs bit-for-bit deterministic for a
// fixed seed at ANY shard count:
//   1. within a shard, Simulator's (time, insertion-seq) order is
//      sequential and deterministic;
//   2. cross-shard deliveries carry (when, src shard, src seq) — all
//      functions of simulated execution, not thread timing — and the
//      barrier drain sorts by exactly that tuple before insertion;
//   3. the barrier hook (stats snapshots, environment sync) runs
//      single-threaded between quanta at fixed multiples of Δ.
//
// With threads disabled (or one shard) the same quantum/barrier/drain
// machinery runs inline on the caller, so a 1-shard run is the reference
// a 16-shard run must digest-match.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/mailbox.h"
#include "sim/simulator.h"

namespace iotsec::sim {

/// N lockstep simulators. The driver (the RunUntil caller) executes
/// shard 0; shards 1..N-1 each own a worker thread that sleeps on its own
/// generation gate between quanta. Per quantum the driver wakes only the
/// workers whose simulator has an event due by the quantum end — an idle
/// shard's clock is advanced by the driver instead — then runs shard 0,
/// then waits for the woken workers to count themselves done. Waiting on
/// either side spins for a bounded budget before parking, unless the set
/// has more shards than the machine has hardware threads, in which case
/// a spinner would only steal the core a peer needs, so it parks at once.
class ShardSet {
 public:
  struct Options {
    int shards = 1;
    /// Conservative lookahead: cross-shard deliveries within a quantum
    /// land no earlier than its end. Must be <= every cross-shard link's
    /// latency (Post enforces with a clamp + counter).
    SimDuration quantum = 100 * kMicrosecond;
    /// false: run every shard inline on the caller (debug / reference
    /// runs — identical results by construction).
    bool use_threads = true;
    /// Invoked once in each worker thread's context (and on the caller
    /// for shard 0) before it executes events, so per-shard resources
    /// (packet pools, recorder rings) can be thread-bound.
    std::function<void(int shard)> enter_shard;
  };

  explicit ShardSet(Options options);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  [[nodiscard]] int shard_count() const {
    return static_cast<int>(sims_.size());
  }
  [[nodiscard]] Simulator& sim(int shard) { return *sims_[shard]; }
  [[nodiscard]] SimDuration quantum() const { return options_.quantum; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quanta_run() const { return quanta_; }
  /// Times a worker thread was woken to run a quantum. Idle shards are
  /// not woken, so this is at most quanta_run() * (shard_count() - 1) and
  /// stays 0 in inline mode.
  [[nodiscard]] std::uint64_t worker_wakeups() const { return wakeups_; }

  /// Shard whose event loop the calling thread is executing; 0 for the
  /// driver thread outside a run (setup happens in shard 0's context).
  [[nodiscard]] static int CurrentShard();

  /// Cross-shard handoff: schedules `fn` on shard `dst` at absolute time
  /// `when`. Callable from any shard's executing event (or from setup
  /// code before/between runs). During a run, `when` is clamped to the
  /// end of the current quantum — a clamp means the caller violated the
  /// lookahead contract and is counted in late_posts().
  void Post(int dst, SimTime when, Callback fn);

  /// Runs every shard to `deadline` in lockstep quanta. `barrier_hook`
  /// (optional) runs single-threaded after each quantum's drain with the
  /// quantum end time. Not reentrant: events must not call RunUntil.
  void RunUntil(SimTime deadline,
                const std::function<void(SimTime)>& barrier_hook = nullptr);
  void RunFor(SimDuration d, const std::function<void(SimTime)>& hook = nullptr) {
    RunUntil(Now() + d, hook);
  }

  /// The lockstep clock (all shards agree at barriers; during a quantum
  /// individual shards may be anywhere inside [Now(), Now()+quantum)).
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Posts whose `when` had to be clamped forward to the quantum end
  /// (lookahead contract violations — should stay 0).
  [[nodiscard]] std::uint64_t late_posts() const {
    return late_posts_.load(std::memory_order_relaxed);
  }
  /// Total cross-shard events delivered through the mailboxes.
  [[nodiscard]] std::uint64_t cross_shard_events() const {
    return cross_delivered_;
  }

 private:
  struct Worker;

  SpscMailbox& MailboxFor(int src, int dst) {
    return *mailboxes_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(shard_count()) +
                       static_cast<std::size_t>(dst)];
  }
  void DrainMailboxes();
  void WorkerLoop(int shard);

  Options options_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<SpscMailbox>> mailboxes_;  // [src * K + dst]
  // Per-source-shard Post sequence numbers (only the owning shard's
  // thread increments its slot; padded so neighbours never share a line).
  struct alignas(64) SrcSeq {
    std::uint64_t v = 0;
  };
  std::vector<SrcSeq> src_seqs_;

  // Worker rendezvous. Each worker sleeps on its own cache-line gate;
  // the driver publishes target_ (or shutdown_) and then bumps the gate
  // with release ordering, so a worker that acquires the new generation
  // also sees them. pending_ counts woken workers not yet done; the last
  // one to finish notifies the driver. std::barrier would wake every
  // worker every quantum and has no shutdown path.
  struct alignas(64) Gate {
    std::atomic<std::uint32_t> generation{0};
  };
  std::unique_ptr<Gate[]> gates_;  // [shard]; shard 0's is unused
  alignas(64) std::atomic<int> pending_{0};
  SimTime target_ = 0;
  bool shutdown_ = false;
  // Spin before parking only while every shard can have a core.
  bool spin_ = false;
  std::uint64_t wakeups_ = 0;
  // Each shard's earliest queued event at the start of the quantum.
  std::vector<SimTime> next_event_;

  SimTime now_ = 0;
  std::atomic<SimTime> quantum_end_{0};
  std::atomic<bool> running_{false};
  std::uint64_t quanta_ = 0;
  std::atomic<std::uint64_t> late_posts_{0};
  std::uint64_t cross_delivered_ = 0;
  std::vector<CrossShardEvent> drain_scratch_;
  // Workers use every member above; the destructor joins them first.
  std::vector<std::thread> threads_;
};

}  // namespace iotsec::sim
