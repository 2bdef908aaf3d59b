// Device -> shard routing.
//
// Sharding is keyed by device so that a device's µmbox chain, its link
// endpoints, and its microflow entries all live on one shard and never
// need locks. The map must be a pure function of the device id (identical
// at any shard count and on every thread), so it is a splitmix-style
// integer hash rather than anything seeded or stateful.
#pragma once

#include <cstdint>

#include "common/hash.h"
#include "common/types.h"

namespace iotsec::sdn {

/// Stateless 32->64 bit mix (splitmix64 finalizer). Adjacent device ids
/// spread across shards instead of clustering modulo K.
[[nodiscard]] inline std::uint64_t MixDeviceId(DeviceId id) {
  return hash::SplitMix64(static_cast<std::uint64_t>(id) + hash::kGolden);
}

/// Home shard for a device in a K-shard deployment.
[[nodiscard]] inline int ShardOfDevice(DeviceId id, int shards) {
  if (shards <= 1) return 0;
  return static_cast<int>(MixDeviceId(id) %
                          static_cast<std::uint64_t>(shards));
}

}  // namespace iotsec::sdn
