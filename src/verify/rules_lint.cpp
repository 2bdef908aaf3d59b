#include "verify/rules_lint.h"

#include "sig/rule.h"
#include "sig/ruleset.h"

namespace iotsec::verify {

std::size_t LintRulesText(std::string_view rules_text,
                          const std::string& origin, Report& report) {
  std::size_t added = 0;
  sig::RuleLines lines;
  const auto rules = sig::ParseRules(rules_text, nullptr, &lines);
  for (const auto& [line, error] : lines.errors) {
    report.Add("R004", Severity::kError, origin, error, line, 1);
    ++added;
  }

  for (const auto& issue : sig::RuleSet::Lint(rules)) {
    const Severity severity =
        issue.code == "R002" ? Severity::kError : Severity::kWarn;
    const int line = issue.rule_index < lines.rules.size()
                         ? lines.rules[issue.rule_index]
                         : 0;
    report.Add(issue.code, severity, origin, issue.message, line,
               line > 0 ? 1 : 0);
    ++added;
  }
  return added;
}

}  // namespace iotsec::verify
