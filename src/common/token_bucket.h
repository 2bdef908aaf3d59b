// Token bucket over simulated time: the one rate-limit implementation,
// shared by the µmbox RateLimiter element and the controller's PacketIn
// gate.
#pragma once

#include <algorithm>

#include "common/types.h"

namespace iotsec {

/// Starts full. Each Take() first refills rate·elapsed tokens, capped at
/// `burst`, then spends one token if a whole token is there. Over any
/// window of length t starting from a full bucket, at most
/// burst + rate·t takes succeed.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst)
      : rate_per_s_(rate_per_s), burst_(burst), tokens_(burst) {}

  /// True (and one token spent) when the bucket admits an event at `now`.
  bool Take(SimTime now) {
    const double elapsed_s = static_cast<double>(now - last_refill_) /
                             static_cast<double>(kSecond);
    last_refill_ = now;
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_s_);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  double rate_per_s_;
  double burst_;
  double tokens_;
  SimTime last_refill_ = 0;
};

}  // namespace iotsec
