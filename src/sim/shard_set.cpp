#include "sim/shard_set.h"

#include <algorithm>
#include <cassert>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace iotsec::sim {

namespace {
// Which shard's event loop this thread is currently executing. The driver
// thread runs shard 0 (and, in inline mode, temporarily adopts each shard
// in turn); worker threads pin their shard for life.
thread_local int t_current_shard = 0;

// Polls a waiter makes before parking in std::atomic::wait: about 90 µs
// of pause instructions on a 4-core Xeon. Long enough to cover a barrier
// phase plus a few light quanta on the other side, short enough that an
// idle worker soon gives its core back.
constexpr int kSpinBudget = 4096;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Waits until `a` holds a value other than `old` and returns it: spins
// for kSpinBudget acquire polls when `spin`, then parks.
template <typename T>
T AwaitChange(const std::atomic<T>& a, T old, bool spin) {
  if (spin) {
    for (int i = 0; i < kSpinBudget; ++i) {
      const T v = a.load(std::memory_order_acquire);
      if (v != old) return v;
      CpuRelax();
    }
  }
  a.wait(old, std::memory_order_acquire);  // returns once a != old
  return a.load(std::memory_order_acquire);
}
}  // namespace

int ShardSet::CurrentShard() { return t_current_shard; }

ShardSet::ShardSet(Options options) : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
  const int k = options_.shards;
  sims_.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) sims_.push_back(std::make_unique<Simulator>());
  mailboxes_.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (auto& mb : mailboxes_) mb = std::make_unique<SpscMailbox>();
  src_seqs_.resize(static_cast<std::size_t>(k));
  gates_ = std::make_unique<Gate[]>(static_cast<std::size_t>(k));
  next_event_.resize(static_cast<std::size_t>(k));
  const unsigned cores = std::thread::hardware_concurrency();
  spin_ = static_cast<unsigned>(k) <= cores;
  if (options_.enter_shard) options_.enter_shard(0);  // driver == shard 0
}

ShardSet::~ShardSet() {
  if (threads_.empty()) return;
  shutdown_ = true;
  for (int i = 1; i < shard_count(); ++i) {
    gates_[static_cast<std::size_t>(i)].generation.fetch_add(
        1, std::memory_order_release);
    gates_[static_cast<std::size_t>(i)].generation.notify_one();
  }
  for (auto& t : threads_) t.join();
}

void ShardSet::WorkerLoop(int shard) {
  t_current_shard = shard;
  if (options_.enter_shard) options_.enter_shard(shard);
  const auto& gate = gates_[static_cast<std::size_t>(shard)].generation;
  // Gates start at 0 and are first bumped after this thread exists, but
  // possibly before it gets here: start from 0, not from a fresh load.
  std::uint32_t seen = 0;
  for (;;) {
    seen = AwaitChange(gate, seen, spin_);
    if (shutdown_) return;
    sims_[static_cast<std::size_t>(shard)]->RunUntil(target_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ShardSet::Post(int dst, SimTime when, Callback fn) {
  assert(dst >= 0 && dst < shard_count());
  if (!running_.load(std::memory_order_relaxed)) {
    // Setup / between quanta: the caller is single-threaded, schedule
    // directly. Insertion order here is caller program order, which is
    // itself deterministic.
    sims_[static_cast<std::size_t>(dst)]->At(when, std::move(fn));
    return;
  }
  // Mid-quantum: the destination may be executing concurrently, so the
  // event goes through the mailbox and is only inserted at the barrier.
  // The conservative-lookahead contract says `when` lands at or after the
  // quantum end; a violation would deliver into the destination's past, so
  // clamp forward and count it.
  const SimTime qend = quantum_end_.load(std::memory_order_relaxed);
  if (when < qend) {
    when = qend;
    late_posts_.fetch_add(1, std::memory_order_relaxed);
  }
  const int src = t_current_shard;
  CrossShardEvent ev;
  ev.when = when;
  ev.src = src;
  ev.src_seq = src_seqs_[static_cast<std::size_t>(src)].v++;
  ev.fn = std::move(fn);
  MailboxFor(src, dst).Push(std::move(ev));
}

void ShardSet::DrainMailboxes() {
  const int k = shard_count();
  for (int dst = 0; dst < k; ++dst) {
    drain_scratch_.clear();
    for (int src = 0; src < k; ++src) {
      MailboxFor(src, dst).Drain(drain_scratch_);
    }
    if (drain_scratch_.empty()) continue;
    // Canonical insertion order: (deliver time, source shard, source seq).
    // Every component is a function of simulated execution, never of
    // thread timing, so the destination queue ends up identical for any
    // shard-count/threading configuration that produced the same events.
    // The key is unique per event, so an in-place sort is already stable.
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const CrossShardEvent& a, const CrossShardEvent& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.src_seq < b.src_seq;
              });
    auto& sim = *sims_[static_cast<std::size_t>(dst)];
    for (auto& ev : drain_scratch_) {
      sim.At(ev.when, std::move(ev.fn));
      ++cross_delivered_;
    }
  }
  drain_scratch_.clear();
}

void ShardSet::RunUntil(SimTime deadline,
                        const std::function<void(SimTime)>& barrier_hook) {
  const int k = shard_count();
  const bool threaded = options_.use_threads && k > 1;
  if (threaded && threads_.empty()) {
    threads_.reserve(static_cast<std::size_t>(k - 1));
    for (int i = 1; i < k; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
  while (now_ < deadline) {
    SimTime target = now_ + options_.quantum;
    if (target > deadline) target = deadline;
    // Idle-quantum skip: if no shard has an event inside the next quantum,
    // jump the lockstep clock to the quantum-grid point covering the
    // earliest queued event. The post-drain global next-event time is a
    // function of the simulation alone, so the sequence of non-empty
    // quanta — and therefore every barrier hook time actually doing work —
    // is identical at any shard count.
    SimTime next_event = ~SimTime{0};
    for (int i = 0; i < k; ++i) {
      const SimTime t = sims_[static_cast<std::size_t>(i)]->NextEventTime();
      next_event_[static_cast<std::size_t>(i)] = t;
      next_event = std::min(next_event, t);
    }
    if (next_event > target && target < deadline) {
      SimTime skip_to = deadline;
      if (next_event < deadline) {
        const SimTime quanta_ahead = (next_event - now_) / options_.quantum;
        skip_to = now_ + quanta_ahead * options_.quantum;
        if (skip_to <= now_) skip_to = target;  // event inside first quantum
      }
      if (skip_to > target) {
        // Nothing fires before skip_to, so the queues (and next_event_)
        // are unchanged by moving the clocks.
        for (auto& s : sims_) s->RunUntil(skip_to - options_.quantum);
        now_ = skip_to - options_.quantum;
        target = skip_to;
      }
    }
    quantum_end_.store(target, std::memory_order_relaxed);
    running_.store(true, std::memory_order_relaxed);
    if (threaded) {
      // Idle-shard skip: wake only workers with an event due by the
      // quantum end (<=, as Simulator::RunUntil fires events at exactly
      // its deadline). Mid-quantum, other shards reach an idle shard only
      // through the mailboxes, so it stays idle; its clock just moves.
      target_ = target;
      int woken = 0;
      for (int i = 1; i < k; ++i) {
        if (next_event_[static_cast<std::size_t>(i)] <= target) ++woken;
      }
      pending_.store(woken, std::memory_order_relaxed);
      for (int i = 1; i < k; ++i) {
        auto& sim = *sims_[static_cast<std::size_t>(i)];
        if (next_event_[static_cast<std::size_t>(i)] > target) {
          sim.RunUntil(target);
          continue;
        }
        auto& gate = gates_[static_cast<std::size_t>(i)].generation;
        gate.fetch_add(1, std::memory_order_release);
        gate.notify_one();
      }
      wakeups_ += static_cast<std::uint64_t>(woken);
      t_current_shard = 0;
      sims_[0]->RunUntil(target);
      for (int left = pending_.load(std::memory_order_acquire); left != 0;) {
        left = AwaitChange(pending_, left, spin_);
      }
    } else {
      for (int i = 0; i < k; ++i) {
        t_current_shard = i;
        if (options_.enter_shard && i != 0) options_.enter_shard(i);
        sims_[static_cast<std::size_t>(i)]->RunUntil(target);
      }
      t_current_shard = 0;
      if (options_.enter_shard && k > 1) options_.enter_shard(0);
    }
    running_.store(false, std::memory_order_relaxed);
    now_ = target;
    // Single-threaded barrier phase: merge cross-shard traffic in
    // canonical order, then let the embedder snapshot/sync shared state.
    DrainMailboxes();
    ++quanta_;
    if (barrier_hook) barrier_hook(now_);
  }
}

}  // namespace iotsec::sim
