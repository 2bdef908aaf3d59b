#include "sig/compiled_ruleset.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/obs.h"

namespace iotsec::sig {

// Starts at 1 so EvalScratch's default bound_id of 0 never matches a
// live compile.
std::atomic<std::uint64_t> CompiledRuleset::next_id_{1};

CompiledRuleset::CompiledRuleset(std::vector<Rule> rules)
    : id_(next_id_.fetch_add(1, std::memory_order_relaxed)),
      rules_(std::move(rules)) {
  AhoCorasick automaton;
  required_.reserve(rules_.size());
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const Rule& rule = rules_[ri];
    // A rule with no content option is header-only and must be checked on
    // every packet. A rule with an *empty* content pattern can never match
    // (the automaton ignores empty patterns, so the hit count can never
    // reach contents.size()) — same semantics as the pre-compiled engine.
    required_.push_back(static_cast<std::uint16_t>(rule.contents.size()));
    if (rule.contents.empty()) {
      contentless_.push_back(static_cast<std::uint32_t>(ri));
    }
    for (const ContentPattern& content : rule.contents) {
      const int pid = automaton.AddPattern(content.bytes, content.nocase);
      if (pid >= 0) {
        pattern_rule_.push_back(static_cast<std::uint32_t>(ri));
      }
    }
  }
  automaton.Build();
  dfa_ = DenseDfa::Compile(automaton);
  obs::M().sig_compiles->Inc();
}

RuleVerdict CompiledRuleset::Evaluate(const proto::ParsedFrame& frame,
                                      EvalScratch& scratch) const {
  obs::M().sig_evaluations->Inc();
  OBS_SPAN(obs::M().sig_scan_ns);
  // Rebind on the compile's unique id — never its address, which the
  // allocator may hand to a successor compile. The size checks are a
  // belt-and-braces guard: even with a forged/corrupted binding the
  // epoch-mark arrays must fit this ruleset before we write through them.
  if (scratch.bound_id != id_ ||
      scratch.pattern_epoch.size() != pattern_rule_.size() ||
      scratch.rule_epoch.size() != rules_.size()) {
    scratch.pattern_epoch.assign(pattern_rule_.size(), 0);
    scratch.rule_epoch.assign(rules_.size(), 0);
    scratch.content_hits.assign(rules_.size(), 0);
    scratch.candidates.clear();
    scratch.epoch = 0;
    scratch.bound_id = id_;
  }
  if (++scratch.epoch == 0) {
    // uint32 wrap: reset the mark arrays once every ~4B packets.
    std::fill(scratch.pattern_epoch.begin(), scratch.pattern_epoch.end(), 0u);
    std::fill(scratch.rule_epoch.begin(), scratch.rule_epoch.end(), 0u);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  scratch.candidates.clear();

  if (!pattern_rule_.empty() && !frame.payload.empty()) {
    obs::M().sig_scan_bytes->Inc(frame.payload.size());
    dfa_.MarkMatchesEpoch(
        frame.payload, scratch.pattern_epoch, epoch, [&](std::int32_t pid) {
          const std::uint32_t ri = pattern_rule_[static_cast<std::size_t>(pid)];
          if (scratch.rule_epoch[ri] != epoch) {
            scratch.rule_epoch[ri] = epoch;
            scratch.content_hits[ri] = 0;
          }
          if (++scratch.content_hits[ri] == required_[ri]) {
            scratch.candidates.push_back(ri);
          }
        });
  }
  // Candidate rules (all contents present) plus header-only rules are the
  // only ones worth predicate-checking — evaluation cost no longer scales
  // with ruleset size. Sort so matched sids emit in rule order.
  scratch.candidates.insert(scratch.candidates.end(), contentless_.begin(),
                            contentless_.end());
  std::sort(scratch.candidates.begin(), scratch.candidates.end());

  bool any_pass = false;
  bool any_block = false;
  bool any_alert = false;
  RuleVerdict verdict;
  for (const std::uint32_t ri : scratch.candidates) {
    const Rule& rule = rules_[ri];
    if (!rule.HeaderMatches(frame)) continue;
    verdict.matched_sids.push_back(rule.sid);
    switch (rule.action) {
      case RuleAction::kPass: any_pass = true; break;
      case RuleAction::kBlock: any_block = true; break;
      case RuleAction::kAlert: any_alert = true; break;
    }
  }
  // Whitelist wins over block wins over alert; no match defaults to pass.
  if (any_pass || (!any_block && !any_alert)) {
    verdict.action = RuleAction::kPass;
  } else if (any_block) {
    verdict.action = RuleAction::kBlock;
  } else {
    verdict.action = RuleAction::kAlert;
  }
  if (verdict.Matched()) obs::M().sig_matches->Inc();
  return verdict;
}

std::string CompiledRuleset::CanonicalText(const std::vector<Rule>& rules) {
  std::string text;
  for (const Rule& rule : rules) {
    text += rule.ToText();
    text += '\n';
  }
  return text;
}

std::uint64_t CompiledRuleset::ContentHash(std::string_view text) {
  return hash::Fnv1a(text);
}

CompiledRulesetCache& CompiledRulesetCache::Instance() {
  static CompiledRulesetCache cache;
  return cache;
}

std::shared_ptr<const CompiledRuleset> CompiledRulesetCache::GetOrCompile(
    const std::vector<Rule>& rules) {
  std::string key = CompiledRuleset::CanonicalText(rules);
  const std::uint64_t hash = CompiledRuleset::ContentHash(key);
  std::lock_guard<std::mutex> lock(mu_);
  CountLookupLocked();
  return GetOrCompileLocked(hash, std::move(key), rules);
}

std::shared_ptr<const CompiledRuleset> CompiledRulesetCache::GetOrCompileText(
    std::string_view text, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CountLookupLocked();
    const auto it = aliases_.find(text);
    if (it != aliases_.end()) {
      if (auto live = it->second.lock()) {
        obs::M().sig_cache_hits->Inc();
        return live;
      }
    }
  }
  // Parse outside the lock: other shards' lookups need not wait on it.
  std::vector<std::string> errors;
  const std::vector<Rule> rules = ParseRules(text, &errors);
  if (!errors.empty()) {
    if (error != nullptr) *error = errors.front();
    return nullptr;
  }
  std::string key = CompiledRuleset::CanonicalText(rules);
  const std::uint64_t hash = CompiledRuleset::ContentHash(key);
  std::lock_guard<std::mutex> lock(mu_);
  auto compiled = GetOrCompileLocked(hash, std::move(key), rules);
  aliases_.insert_or_assign(std::string(text), compiled);
  return compiled;
}

void CompiledRulesetCache::CountLookupLocked() {
  // Probing only prunes the probed bucket; sweep the whole table
  // periodically so buckets for rulesets never re-requested can't leak
  // their dead entries forever.
  if (++ops_since_sweep_ >= kSweepInterval) {
    ops_since_sweep_ = 0;
    SweepExpiredLocked();
  }
}

std::shared_ptr<const CompiledRuleset> CompiledRulesetCache::GetOrCompileLocked(
    std::uint64_t hash, std::string key, const std::vector<Rule>& rules) {
  auto& bucket = entries_[hash];
  bool expired_here = false;
  for (auto it = bucket.begin(); it != bucket.end();) {
    if (auto live = it->value.lock()) {
      if (it->key == key) {
        obs::M().sig_cache_hits->Inc();
        return live;
      }
      ++it;
    } else {
      if (it->key == key) expired_here = true;
      it = bucket.erase(it);  // all users released this compile
    }
  }
  obs::M().sig_cache_misses->Inc();
  if (expired_here) obs::M().sig_cache_expired->Inc();
  auto compiled = std::make_shared<const CompiledRuleset>(rules);
  bucket.push_back(Entry{std::move(key), compiled});
  return compiled;
}

void CompiledRulesetCache::SweepExpiredLocked() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& bucket = it->second;
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [](const Entry& entry) {
                                  return entry.value.expired();
                                }),
                 bucket.end());
    it = bucket.empty() ? entries_.erase(it) : std::next(it);
  }
  std::erase_if(aliases_,
                [](const auto& alias) { return alias.second.expired(); });
}

std::size_t CompiledRulesetCache::LiveEntryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t live = 0;
  for (const auto& [hash, bucket] : entries_) {
    for (const auto& entry : bucket) {
      if (!entry.value.expired()) ++live;
    }
  }
  return live;
}

std::size_t CompiledRulesetCache::TotalEntryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [hash, bucket] : entries_) total += bucket.size();
  return total;
}

std::size_t CompiledRulesetCache::AliasCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aliases_.size();
}

void CompiledRulesetCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  aliases_.clear();
  ops_since_sweep_ = 0;
}

}  // namespace iotsec::sig
