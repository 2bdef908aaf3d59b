// RuleSet: the detection engine inside the SignatureMatcher µmbox element.
//
// A thin mutable facade over the immutable CompiledRuleset: rule edits are
// buffered and compiled lazily (one compile per batch, not per rule), the
// compile itself is fetched from the process-wide CompiledRulesetCache so
// every µmbox carrying the same SKU ruleset shares one automaton, and
// evaluation reuses per-instance scratch so the per-packet hot path does
// not allocate. A SignatureMatcher never edits rules: it looks its config
// text up in the cache's text front (CompiledRulesetCache::
// GetOrCompileText) and AdoptCompiled()s the result, so a launch whose
// text is already live parses nothing.
#pragma once

#include <memory>
#include <vector>

#include "sig/compiled_ruleset.h"
#include "sig/rule.h"

namespace iotsec::sig {

/// One ruleset-lint finding. `code` is the stable diagnostic id the
/// static verifier surfaces (R001 empty pattern, R002 duplicate sid,
/// R003 folded-pattern duplicate).
struct RuleLintIssue {
  std::string code;
  std::size_t rule_index = 0;  // index into the linted rule list
  std::string message;
};

class RuleSet {
 public:
  RuleSet() = default;
  explicit RuleSet(std::vector<Rule> rules) { Reset(std::move(rules)); }

  /// Replaces all rules. The compile is deferred to the next Evaluate /
  /// EnsureCompiled and served from the shared cache, so µmbox hot
  /// reconfiguration with an already-deployed ruleset is a pointer swap.
  void Reset(std::vector<Rule> rules);

  /// Adds one rule. Deferred-compile: N single Adds cost one compile at
  /// the next Evaluate, not N full rebuilds (the seed engine's O(n²) load
  /// path).
  void Add(Rule rule);

  /// Batch insert; same deferred compile.
  void Add(std::vector<Rule> rules);

  /// Compiles pending edits now (no-op when clean). Called automatically
  /// by Evaluate; exposed so load paths can pay the compile at a chosen
  /// point.
  void EnsureCompiled();

  /// Epoch swap: adopts an already-built shared compile (rules included)
  /// with no parse and no compile — the rollout pipeline's instant
  /// apply/rollback path. nullptr resets to the empty ruleset.
  void AdoptCompiled(std::shared_ptr<const CompiledRuleset> compiled);

  /// Evaluates every rule against a parsed frame. Allocation-free beyond
  /// the verdict's matched-sid list (empty in the common no-match case).
  [[nodiscard]] RuleVerdict Evaluate(const proto::ParsedFrame& frame);

  [[nodiscard]] std::size_t RuleCount() const { return rules_.size(); }
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  /// Static hygiene checks over a rule list, cheap enough to run on
  /// every load: R001 empty content pattern (matches everything at
  /// offset 0 — almost always an authoring error), R002 duplicate sid
  /// (alerts become un-attributable), R003 a rule whose case-folded
  /// content-pattern set duplicates another rule's (the DFA carries the
  /// same states twice; usually a copy-paste rule that only meant to
  /// change the header). Deterministic order: by rule index, then code.
  [[nodiscard]] static std::vector<RuleLintIssue> Lint(
      const std::vector<Rule>& rules);
  [[nodiscard]] std::vector<RuleLintIssue> Lint() const {
    return Lint(rules_);
  }

  /// True when any rule's action is block. The model checker's
  /// guard-strength probe keys on this: a SignatureMatcher chain with
  /// alert-only rules detects attack traffic but never drops it.
  [[nodiscard]] static bool AnyBlocking(const std::vector<Rule>& rules);

  /// The current shared compile (nullptr until first EnsureCompiled, or
  /// stale while edits are pending). Identity comparison across RuleSets
  /// proves cache sharing in tests.
  [[nodiscard]] std::shared_ptr<const CompiledRuleset> compiled() const {
    return compiled_;
  }
  [[nodiscard]] bool CompilePending() const { return dirty_; }

 private:
  std::vector<Rule> rules_;
  std::shared_ptr<const CompiledRuleset> compiled_;
  EvalScratch scratch_;
  bool dirty_ = false;
};

}  // namespace iotsec::sig
