#include "sim/shard_set.h"

#include <algorithm>
#include <cassert>

namespace iotsec::sim {

namespace {
// Which shard's event loop this thread is currently executing. The driver
// thread runs shard 0 (and, in inline mode, temporarily adopts each shard
// in turn); worker threads pin their shard for life.
thread_local int t_current_shard = 0;
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
  if (options_.enter_shard) options_.enter_shard(0);  // driver == shard 0
}

ShardSet::~ShardSet() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      ++start_generation_;
    }
    cv_start_.notify_all();
    for (auto& t : threads_) t.join();
  }
}

void ShardSet::WorkerLoop(int shard) {
  t_current_shard = shard;
  if (options_.enter_shard) options_.enter_shard(shard);
  std::uint64_t seen_generation = 0;
  for (;;) {
    SimTime target = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] {
        return shutdown_ || start_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = start_generation_;
      target = target_;
    }
    sims_[static_cast<std::size_t>(shard)]->RunUntil(target);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    cv_done_.notify_one();
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
    for (auto& s : sims_) next_event = std::min(next_event, s->NextEventTime());
    if (next_event > target && target < deadline) {
      SimTime skip_to = deadline;
      if (next_event < deadline) {
        const SimTime quanta_ahead = (next_event - now_) / options_.quantum;
        skip_to = now_ + quanta_ahead * options_.quantum;
        if (skip_to <= now_) skip_to = target;  // event inside first quantum
      }
      if (skip_to > target) {
        for (auto& s : sims_) s->RunUntil(skip_to - options_.quantum);
        now_ = skip_to - options_.quantum;
        target = skip_to;
      }
    }
    quantum_end_.store(target, std::memory_order_relaxed);
    running_.store(true, std::memory_order_relaxed);
    if (threaded) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        workers_done_ = 0;
        target_ = target;
        ++start_generation_;
      }
      cv_start_.notify_all();
      t_current_shard = 0;
      sims_[0]->RunUntil(target);
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_done_.wait(lock, [&] { return workers_done_ == k - 1; });
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
