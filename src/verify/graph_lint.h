// Click-lite µmbox graph linter (G0xx findings) and the one guard
// analysis every verifier pass shares.
//
// The linter dry-builds the config through MboxGraph::Build (no packets
// flow, no simulator needed), then checks the wiring topology and the
// declared configuration against the element-type registry.
//
// GuardEvaluator judges a posture by the chain the controller launches:
// the posture's config with the OTA/crowd rule texts spliced in by
// dataplane::SpliceCrowdMatcher. Each reachable element contributes a
// strength; a SignatureMatcher guards only with rules loaded. The policy
// checks (P001/P004) and attack-path coverage (X001–X003) count any
// strength of at least kScanOnly, the model checker runs a blocking and
// a scan-only floor, and G006 reads the same per-element strength.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/element.h"
#include "policy/fsm_policy.h"
#include "verify/report.h"

namespace iotsec::verify {

/// Lints one µmbox config. `origin` labels the findings ("posture
/// quarantine", "graph examples/lint/defect_cycle.click", ...).
/// Findings carry 1-based line:col positions into `config_text`.
/// Returns true when the config at least builds (G001 absent).
bool LintGraphConfig(std::string_view config_text,
                     const dataplane::ElementContext& ctx,
                     const std::string& origin, Report& report);

/// How strongly a posture guards its device's traffic.
enum class GuardStrength : std::uint8_t {
  kNone = 0,      // no tunnel, empty config, or nothing security-relevant
  kScanOnly = 1,  // raises alerts but cannot drop (Logger, alert rules)
  kBlocking = 2,  // can drop on a verdict (Discard, firewall, block rules)
};

[[nodiscard]] constexpr const char* GuardStrengthName(GuardStrength s) {
  switch (s) {
    case GuardStrength::kNone: return "none";
    case GuardStrength::kScanOnly: return "scan-only";
    case GuardStrength::kBlocking: return "blocking";
  }
  return "?";
}

/// Guard strength of postures, memoized per run by exact config text. A
/// SignatureMatcher is as strong as its loaded ruleset (block-action rule
/// → blocking, alert-only → scan-only, none → nothing); any other
/// element by its type's role. Elements the entry cannot reach, and
/// configs that do not build, guard nothing.
class GuardEvaluator {
 public:
  explicit GuardEvaluator(const dataplane::ElementContext& ctx,
                          std::vector<std::string> extra_rule_texts = {});

  [[nodiscard]] GuardStrength Strength(const policy::Posture& posture);

 private:
  dataplane::ElementContext ctx_;
  std::vector<std::string> extra_rule_texts_;
  std::map<std::string, GuardStrength> memo_;  // by posture config text
};

}  // namespace iotsec::verify
