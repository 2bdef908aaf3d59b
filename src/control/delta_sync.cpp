#include "control/delta_sync.h"

#include <algorithm>

namespace iotsec::control {

std::uint64_t FedMix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::uint64_t FedHash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool SegmentStateView::Set(const std::string& key, const std::string& value) {
  auto it = values_.find(key);
  if (it != values_.end() && it->second == value) return false;
  if (it == values_.end()) {
    values_.emplace(key, value);
  } else {
    it->second = value;
  }
  ++version_;
  dirty_.insert(key);
  return true;
}

const std::string* SegmentStateView::Get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

StateDelta SegmentStateView::DrainDelta() {
  StateDelta delta;
  delta.segment = segment_;
  if (dirty_.empty()) return delta;
  delta.epoch = ++epoch_;
  delta.version = version_;
  delta.entries.reserve(dirty_.size());
  // std::set iterates in key order — the canonical wire order.
  for (const auto& key : dirty_) {
    delta.entries.push_back(DeltaEntry{key, values_.at(key)});
  }
  dirty_.clear();
  return delta;
}

void GlobalStateStore::AddDependency(const std::string& key, int segment) {
  readers_.Add(key, segment);
}

std::vector<int> GlobalStateStore::Apply(const StateDelta& delta) {
  std::set<int> dependents;
  for (const DeltaEntry& e : delta.entries) {
    values_[e.key] = e.value;
    ++stats_.entries_applied;
    digest_ = FedMix64(
        digest_,
        FedMix64(static_cast<std::uint64_t>(delta.segment) << 32 | delta.epoch,
                 FedMix64(FedHash(e.key), FedHash(e.value))));
    const auto* readers = readers_.ReadersOf(e.key);
    if (readers == nullptr) continue;
    for (const int seg : *readers) {
      if (seg != delta.segment) dependents.insert(seg);
    }
  }
  ++stats_.deltas_applied;
  applied_epoch_[delta.segment] = delta.epoch;
  stats_.dependent_wakeups += dependents.size();
  return {dependents.begin(), dependents.end()};
}

std::vector<int> GlobalStateStore::DependentsOf(const std::string& key,
                                                int except) const {
  std::vector<int> out;
  const auto* readers = readers_.ReadersOf(key);
  if (readers == nullptr) return out;
  for (const int seg : *readers) {
    if (seg != except) out.push_back(seg);
  }
  return out;
}

const std::string* GlobalStateStore::Get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::uint64_t GlobalStateStore::AppliedEpoch(int segment) const {
  const auto it = applied_epoch_.find(segment);
  return it == applied_epoch_.end() ? 0 : it->second;
}

}  // namespace iotsec::control
