#include "sig/ruleset.h"

#include <algorithm>
#include <map>

#include "sig/aho_corasick.h"

namespace iotsec::sig {
namespace {

/// Canonical key for R003: the rule's content patterns, case-folded the
/// way the automaton folds them, sorted so pattern order is irrelevant.
std::string FoldedPatternKey(const Rule& rule) {
  std::vector<std::string> folded;
  folded.reserve(rule.contents.size());
  for (const auto& content : rule.contents) {
    std::string f;
    f.reserve(content.bytes.size());
    for (const char c : content.bytes) {
      f.push_back(static_cast<char>(
          kCaseFold[static_cast<std::uint8_t>(c)]));
    }
    folded.push_back(std::move(f));
  }
  std::sort(folded.begin(), folded.end());
  std::string key;
  for (const auto& f : folded) {
    key += std::to_string(f.size());
    key += ':';
    key += f;
  }
  return key;
}

}  // namespace

void RuleSet::Unadopt() {
  if (!adopted_) return;
  rules_ = compiled_->rules();
  adopted_ = false;
}

void RuleSet::Reset(std::vector<Rule> rules) {
  rules_ = std::move(rules);
  compiled_.reset();
  dirty_ = true;
  adopted_ = false;
}

void RuleSet::Add(Rule rule) {
  Unadopt();
  rules_.push_back(std::move(rule));
  dirty_ = true;
}

void RuleSet::Add(std::vector<Rule> rules) {
  Unadopt();
  rules_.insert(rules_.end(), std::make_move_iterator(rules.begin()),
                std::make_move_iterator(rules.end()));
  dirty_ = true;
}

void RuleSet::EnsureCompiled() {
  if (!dirty_ && compiled_ != nullptr) return;
  // The old compile (if any) stays alive for anyone still holding it —
  // in-flight evaluations and sibling µmboxes are unaffected.
  compiled_ = CompiledRulesetCache::Instance().GetOrCompile(rules_);
  dirty_ = false;
}

void RuleSet::AdoptCompiled(
    std::shared_ptr<const CompiledRuleset> compiled) {
  if (compiled == nullptr) {
    Reset({});
    return;
  }
  rules_ = {};
  compiled_ = std::move(compiled);
  dirty_ = false;
  adopted_ = true;
}

RuleVerdict RuleSet::Evaluate(const proto::ParsedFrame& frame) {
  EnsureCompiled();
  return compiled_->Evaluate(frame, scratch_);
}

std::vector<RuleLintIssue> RuleSet::Lint(const std::vector<Rule>& rules) {
  std::vector<RuleLintIssue> issues;
  std::map<std::uint32_t, std::size_t> first_sid;
  std::map<std::string, std::size_t> first_pattern;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    const std::string label =
        "sid " + std::to_string(rule.sid) +
        (rule.msg.empty() ? "" : " (\"" + rule.msg + "\")");

    for (const auto& content : rule.contents) {
      if (content.bytes.empty()) {
        issues.push_back({"R001", i,
                          label + ": empty content pattern matches every "
                                  "packet"});
        break;
      }
    }

    if (rule.sid != 0) {
      const auto [it, inserted] = first_sid.emplace(rule.sid, i);
      if (!inserted) {
        issues.push_back({"R002", i,
                          label + ": duplicate sid (first declared by rule " +
                              std::to_string(it->second) + ")"});
      }
    }

    if (!rule.contents.empty()) {
      const auto [it, inserted] =
          first_pattern.emplace(FoldedPatternKey(rule), i);
      if (!inserted) {
        issues.push_back(
            {"R003", i,
             label + ": folded content patterns duplicate rule " +
                 std::to_string(it->second) + " (sid " +
                 std::to_string(rules[it->second].sid) +
                 ") — wasted DFA states"});
      }
    }
  }
  return issues;
}

bool RuleSet::AnyBlocking(const std::vector<Rule>& rules) {
  for (const auto& rule : rules) {
    if (rule.action == RuleAction::kBlock) return true;
  }
  return false;
}

}  // namespace iotsec::sig
