// OVS-style exact-match microflow cache.
//
// Sits in front of FlowTable's classifier (one hash probe per distinct
// mask): the first packet of a flow pays the classifier, every subsequent
// packet of the same exact flow is classified by one hash probe. Negative results
// (table miss -> PacketIn) are cached too.
//
// Staleness is impossible by construction: every cached verdict carries
// the flow table's generation counter, which the table bumps on any
// mutation (install / removal / clear). A probe whose recorded generation
// differs from the table's current one is treated as a miss, so a cached
// FlowEntry pointer is only ever dereferenced while the table is provably
// unchanged since it was cached.
//
// The cache is direct-mapped with overwrite-on-collision (like OVS's EMC):
// no tombstones, no rehashing, bounded memory, O(1) worst case.
#pragma once

#include <cstdint>
#include <vector>

#include "sdn/flow_key.h"

namespace iotsec::sdn {

struct FlowEntry;

class MicroflowCache {
 public:
  static constexpr std::size_t kDefaultSlots = 8192;

  explicit MicroflowCache(std::size_t slots = kDefaultSlots);

  /// Probes the cache; `hash` is key.Hash(), computed once by the caller
  /// and shared with the Insert that follows a miss. On a hit returns
  /// true and sets *entry to the cached verdict (nullptr = cached table
  /// miss). On a miss (empty slot, key mismatch, or stale generation)
  /// returns false.
  bool Find(const FlowKey& key, std::uint64_t hash, std::uint64_t generation,
            const FlowEntry** entry);

  /// Records the classification of `key` (whose key.Hash() is `hash`)
  /// under `generation`, overwriting whatever occupied the slot.
  void Insert(const FlowKey& key, std::uint64_t hash, const FlowEntry* entry,
              std::uint64_t generation);

  void Clear();

  /// Drops every cached verdict and resizes to `slots` (rounded up to a
  /// power of two). Fleet-scale deployments call this to size a switch's
  /// cache to its device population before warming it.
  void Resize(std::size_t slots);

  [[nodiscard]] std::size_t SlotCount() const { return slots_.size(); }

  struct Stats {
    std::uint64_t hits = 0;        // served from the cache
    std::uint64_t misses = 0;      // empty slot or different flow
    std::uint64_t stale = 0;       // generation mismatch (invalidated)
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   // insert displaced a live entry

    [[nodiscard]] double HitRate() const {
      const std::uint64_t total = hits + misses + stale;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  struct Slot {
    FlowKey key;
    const FlowEntry* entry = nullptr;
    std::uint64_t generation = 0;
    bool used = false;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  Stats stats_;
};

}  // namespace iotsec::sdn
