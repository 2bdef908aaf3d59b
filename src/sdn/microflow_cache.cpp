#include "sdn/microflow_cache.h"

#include "obs/obs.h"

namespace iotsec::sdn {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

MicroflowCache::MicroflowCache(std::size_t slots)
    : slots_(RoundUpPow2(slots == 0 ? 1 : slots)),
      mask_(slots_.size() - 1) {}

bool MicroflowCache::Find(const FlowKey& key, std::uint64_t hash,
                          std::uint64_t generation, const FlowEntry** entry) {
  // Per-instance stats stay exact and cheap (plain fields); the fleet-
  // wide hit ratio additionally lands in the metrics registry, and every
  // miss (first packet of a flow or a flow-table mutation) is a flight-
  // recorder breadcrumb — the event that explains a latency spike.
  Slot& slot = slots_[hash & mask_];
  if (!slot.used || !(slot.key == key)) {
    ++stats_.misses;
    if (obs::Enabled()) {
      obs::M().sdn_microflow_misses->Inc();
      obs::FlightRecorder::Global().Record(
          obs::TraceEventType::kMicroflowMiss, 0, 0, hash);
    }
    return false;
  }
  if (slot.generation != generation) {
    ++stats_.stale;
    if (obs::Enabled()) obs::M().sdn_microflow_stale->Inc();
    return false;
  }
  ++stats_.hits;
  if (obs::Enabled()) obs::M().sdn_microflow_hits->Inc();
  *entry = slot.entry;
  return true;
}

void MicroflowCache::Insert(const FlowKey& key, std::uint64_t hash,
                            const FlowEntry* entry, std::uint64_t generation) {
  Slot& slot = slots_[hash & mask_];
  if (slot.used && !(slot.key == key) && slot.generation == generation) {
    ++stats_.evictions;
  }
  slot.key = key;
  slot.entry = entry;
  slot.generation = generation;
  slot.used = true;
  ++stats_.insertions;
}

void MicroflowCache::Clear() {
  for (Slot& slot : slots_) slot = {};
}

void MicroflowCache::Resize(std::size_t slots) {
  slots_.assign(RoundUpPow2(slots == 0 ? 1 : slots), Slot{});
  mask_ = slots_.size() - 1;
}

}  // namespace iotsec::sdn
