// Ruleset OTA manifests: the signed, chained unit of distribution.
//
// The crowd repository (§4.1) produces accepted signatures; shipping them
// raw to every µmbox at once is the "signature as DoS vector" §4.1 warns
// about — one bad ruleset bricks the whole fleet simultaneously, and a
// compromised distribution channel can inject arbitrary blocking rules.
// RulesetManifest is the defense-in-depth unit: each SKU's ruleset history
// is a monotonically versioned chain (every version carries a content hash
// and its parent's content hash), payloads are deltas (rule texts added,
// content hashes removed) rather than whole rulesets, and the whole
// manifest is covered by a MAC verified at every µmbox load. A tampered
// byte, a replayed stale version or an out-of-chain delta is rejected at
// the receiver, counted and flight-recorded.
//
// The signature is SipHash-2-4 keyed by the 64-bit signing key, over a
// length-prefixed encoding of every other field: holding signed
// manifests does not reveal the key, so it does not let anyone sign a
// new one. Content and rule hashes are still FNV-1a, which is not
// collision resistant: the MAC authenticates the rule texts and hash
// values a manifest carries, not that no other ruleset shares those
// hashes (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iotsec::rollout {

/// FNV-1a over a rule's canonical text — the identity used for delta
/// "remove" entries and ingest dedupe (learn.crowd.duplicates).
[[nodiscard]] std::uint64_t HashRuleText(std::string_view text);

/// Content hash of a full ruleset: commutative combination of the
/// per-rule hashes, so the store's canonical list and a receiver's
/// delta-applied list (survivors first, adds appended) agree regardless
/// of rule order. Rule *sets*, not sequences, are the distribution unit —
/// evaluation is order-independent.
[[nodiscard]] std::uint64_t HashRuleList(
    const std::vector<std::string>& rule_texts);

/// One hop (or a composed span) of a SKU's ruleset chain.
struct RulesetManifest {
  std::string sku;
  /// Target version this manifest produces (monotonic per SKU, 1-based).
  std::uint64_t version = 0;
  /// Content hash of the *full* canonical ruleset at `version` — the
  /// receiver recomputes it after applying and refuses a mismatch.
  std::uint64_t content_hash = 0;
  /// Content hash of the ruleset the delta applies on top of (0 for a
  /// from-nothing snapshot). Receivers whose current hash differs reject
  /// the manifest as out-of-chain.
  std::uint64_t parent_hash = 0;
  /// true: `add` carries the full ruleset and `remove` is empty — the
  /// receiver replaces wholesale (used from version 0 and past the
  /// staleness horizon).
  bool snapshot = false;
  /// Rule texts added relative to the parent (full list when snapshot).
  std::vector<std::string> add;
  /// HashRuleText() of each rule removed relative to the parent.
  std::vector<std::uint64_t> remove;
  /// MAC over every other field; see Sign()/VerifySignature().
  std::uint64_t signature = 0;

  /// Serialized size estimate (bytes on the distribution channel) — what
  /// bench_rollout charges the delta arm per receiver.
  [[nodiscard]] std::size_t WireBytes() const;
};

/// Stamps manifest.signature with the MAC under `key`.
void Sign(RulesetManifest& manifest, std::uint64_t key);
/// True iff manifest.signature is the MAC under `key` — any flipped
/// payload byte or wrong key fails.
[[nodiscard]] bool VerifySignature(const RulesetManifest& manifest,
                                   std::uint64_t key);

// ---------------------------------------------------------------- plans
//
// A rollout *plan* is the operator-authored description of how a version
// reaches the fleet — linted by iotsec-verify rule R005 before anything
// ships. Plain line format, '#' comments:
//
//   sku Wemo-Insight
//   target 5
//   rollback 4
//   stage canary 50 hold 2s # optional name, permille, optional hold
//   stage 1000 hold 5s
//   version 4 signed
//   version 5 signed
//
// The parser is deliberately permissive about stage permille values
// (anything that fits a uint32 parses); range sanity lives in the R005
// lint so an out-of-range ladder surfaces as a finding with the rest of
// the plan's problems, not as a parse dead-end hiding them.

struct RolloutPlanStage {
  /// Optional operator-facing label ("canary", "fleet"); duplicates are
  /// an R005 error. Empty for unnamed stages.
  std::string name;
  std::uint32_t permille = 0;
  std::string hold;  // raw duration token ("2s", "500ms"); informational
};

struct RolloutPlan {
  std::string sku;
  std::uint64_t target = 0;
  std::uint64_t rollback = 0;
  bool has_rollback = false;
  std::vector<RolloutPlanStage> stages;
  /// version -> signed? (from "version N signed|unsigned" lines).
  std::vector<std::pair<std::uint64_t, bool>> versions;
  [[nodiscard]] bool KnowsVersion(std::uint64_t v, bool* is_signed) const;
};

/// Parses the plan format above. Returns false with *error on malformed
/// input; the message starts "line N: " (1-based) when one line is at
/// fault, and names the missing directive otherwise.
[[nodiscard]] bool ParseRolloutPlan(const std::string& text,
                                    RolloutPlan* plan, std::string* error);

}  // namespace iotsec::rollout
