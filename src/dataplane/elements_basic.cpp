// Pass-through, plumbing and rate-control elements.
#include "common/log.h"
#include "common/strings.h"
#include "dataplane/elements.h"

namespace iotsec::dataplane {

void Counter::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  ++packets_;
  bytes_ += pkt->size();
  Output(std::move(pkt));
}

bool Tee::Configure(const ConfigMap& config, std::string* error) {
  const auto it = config.find("ports");
  if (it != config.end()) {
    std::uint64_t v = 0;
    if (!ParseUint(it->second, v) || v < 1 || v > 16) {
      if (error) *error = "Tee: ports must be 1..16";
      return false;
    }
    ports_ = static_cast<int>(v);
  }
  return true;
}

void Tee::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  for (int p = 1; p < ports_; ++p) {
    Output(net::ClonePacket(*pkt), p);
  }
  Output(std::move(pkt), 0);
}

void Discard::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  Drop(pkt);
}

bool Logger::Configure(const ConfigMap& config, std::string* error) {
  (void)error;
  const auto it = config.find("prefix");
  if (it != config.end()) prefix_ = it->second;
  return true;
}

void Logger::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (frame && frame->ip) {
    IOTSEC_LOG_DEBUG("%s: %s -> %s %zu bytes", prefix_.c_str(),
                     frame->ip->src.ToString().c_str(),
                     frame->ip->dst.ToString().c_str(), pkt->size());
  }
  Output(std::move(pkt));
}

bool RateLimiter::Configure(const ConfigMap& config, std::string* error) {
  double rate_pps = 100.0;
  double burst = 20.0;
  if (const auto it = config.find("rate_pps"); it != config.end()) {
    try {
      rate_pps = std::stod(it->second);
    } catch (const std::exception&) {
      if (error) *error = "RateLimiter: bad rate_pps";
      return false;
    }
  }
  if (const auto it = config.find("burst"); it != config.end()) {
    try {
      burst = std::stod(it->second);
    } catch (const std::exception&) {
      if (error) *error = "RateLimiter: bad burst";
      return false;
    }
  }
  if (rate_pps <= 0 || burst <= 0) {
    if (error) *error = "RateLimiter: rate_pps and burst must be positive";
    return false;
  }
  bucket_ = TokenBucket(rate_pps, burst);
  return true;
}

void RateLimiter::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  if (bucket_.Take(ctx_.sim != nullptr ? ctx_.sim->Now() : 0)) {
    Output(std::move(pkt));
  } else {
    Drop(pkt);
    RaiseAlert("rate", "rate limit exceeded");
  }
}

bool IpFilter::ParseAcl(std::string_view text, std::vector<AclRule>& out,
                        std::string* error) {
  for (const auto& item : Split(text, '|')) {
    const auto trimmed = Trim(item);
    if (trimmed.empty()) continue;
    AclRule rule;
    const auto colon = trimmed.find(':');
    std::string_view prefix_part = trimmed;
    if (colon != std::string_view::npos) {
      prefix_part = trimmed.substr(0, colon);
      std::uint64_t port = 0;
      if (!ParseUint(trimmed.substr(colon + 1), port) || port > 65535) {
        if (error) *error = "IpFilter: bad port in ACL";
        return false;
      }
      rule.port = static_cast<std::uint16_t>(port);
    }
    if (prefix_part == "any") {
      rule.prefix = net::Ipv4Prefix::Any();
    } else {
      auto p = net::Ipv4Prefix::Parse(prefix_part);
      if (!p) {
        if (error) *error = "IpFilter: bad prefix in ACL";
        return false;
      }
      rule.prefix = *p;
    }
    out.push_back(rule);
  }
  return true;
}

bool IpFilter::Configure(const ConfigMap& config, std::string* error) {
  allow_.clear();
  deny_.clear();
  if (const auto it = config.find("allow"); it != config.end()) {
    if (!ParseAcl(it->second, allow_, error)) return false;
  }
  if (const auto it = config.find("deny"); it != config.end()) {
    if (!ParseAcl(it->second, deny_, error)) return false;
  }
  if (const auto it = config.find("default"); it != config.end()) {
    if (it->second == "allow") {
      default_allow_ = true;
    } else if (it->second == "deny") {
      default_allow_ = false;
    } else {
      if (error) *error = "IpFilter: default must be allow|deny";
      return false;
    }
  }
  return true;
}

bool IpFilter::RuleHits(const AclRule& rule, const proto::ParsedFrame& frame) {
  if (!frame.ip) return false;
  // ACLs are about who talks to the device, so they key on the remote
  // side: match if either endpoint falls in the prefix.
  const bool ip_hit =
      rule.prefix.Contains(frame.ip->src) || rule.prefix.Contains(frame.ip->dst);
  if (!ip_hit) return false;
  if (rule.port && frame.DstPort() != *rule.port &&
      frame.SrcPort() != *rule.port) {
    return false;
  }
  return true;
}

void IpFilter::Push(net::PacketPtr pkt, int in_port) {
  (void)in_port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip) {
    // Non-IP traffic is not this element's business.
    Output(std::move(pkt));
    return;
  }
  for (const auto& rule : deny_) {
    if (RuleHits(rule, *frame)) {
      Drop(pkt);
      RaiseAlert("acl", "denied by ACL: " + frame->ip->src.ToString());
      return;
    }
  }
  for (const auto& rule : allow_) {
    if (RuleHits(rule, *frame)) {
      Output(std::move(pkt));
      return;
    }
  }
  if (default_allow_) {
    Output(std::move(pkt));
  } else {
    Drop(pkt);
    RaiseAlert("acl", "default-deny: " + frame->ip->src.ToString());
  }
}

}  // namespace iotsec::dataplane
