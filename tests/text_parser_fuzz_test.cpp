// Hostile input for the line-oriented text parsers: the policy DSL
// (policy::ParsePolicyText), Snort-lite rules (sig::ParseRules), rollout
// plans (rollout::ParseRolloutPlan) and lint baselines
// (verify::ParseBaseline). Seeded mutations of examples/lint/*.pol,
// *.rules and *.plan, and of a FormatBaseline output, run through each.
//
// Properties: nothing crashes (the sanitizer build runs this target too);
// every line a parser reports lies inside its input; each accepted rule's
// ToText() re-parses to a rule with the same ToText(); and
// ParseBaseline(FormatBaseline(r)) gives back r's keys, for reports r
// whose findings quote the mutated inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/postures.h"
#include "policy/dsl.h"
#include "rollout/manifest.h"
#include "sig/rule.h"
#include "verify/report.h"
#include "verify/rollout_lint.h"
#include "verify/rules_lint.h"

namespace iotsec {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The shipped lint fixtures with extension `ext`, in name order.
std::vector<std::string> Fixtures(const std::string& ext) {
  const auto dir =
      std::filesystem::path(IOTSEC_SOURCE_DIR) / "examples" / "lint";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(ReadFile(path));
  return texts;
}

int LineCount(const std::string& text) {
  return 1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

/// The N of a leading "line N: ", or -1 when the message has none.
int ReportedLine(const std::string& message) {
  const auto colon = message.find(':');
  std::uint64_t n = 0;
  if (!StartsWith(message, "line ") || colon == std::string::npos ||
      !ParseUint(std::string_view(message).substr(5, colon - 5), n)) {
    return -1;
  }
  return static_cast<int>(n);
}

/// A random line start (0 or just past a newline).
std::size_t LineStart(Rng& rng, const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts[rng.NextBelow(starts.size())];
}

/// Just before a random ')' (a random position when there is none), so
/// an inserted rule option can land last in its block.
std::size_t BeforeClose(Rng& rng, const std::string& text) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ')') at.push_back(i);
  }
  return at.empty() ? rng.NextBelow(text.size() + 1)
                    : at[rng.NextBelow(at.size())];
}

/// One hostile edit: byte flips, truncation, a grammar token (anywhere,
/// at a line start or before a ')'), a duplicated line, a newline, CR,
/// NUL or high bytes.
void MutateOnce(Rng& rng, const std::vector<std::string>& tokens,
                std::string& text) {
  const auto at = [&] { return rng.NextBelow(text.size() + 1); };
  switch (rng.NextBelow(7)) {
    case 0:
      if (!text.empty()) {
        const auto i = rng.NextBelow(text.size());
        text[i] = static_cast<char>(text[i] ^
                                    static_cast<char>(1 + rng.NextBelow(255)));
      }
      break;
    case 1:
      text.resize(rng.NextBelow(text.size() + 1));
      break;
    case 2: {
      const auto where = rng.NextBelow(3);
      text.insert(where == 0   ? at()
                  : where == 1 ? LineStart(rng, text)
                               : BeforeClose(rng, text),
                  tokens[rng.NextBelow(tokens.size())]);
      break;
    }
    case 3: {
      const auto start = LineStart(rng, text);
      const auto end = text.find('\n', start);
      const std::string line =
          text.substr(start, end == std::string::npos ? std::string::npos
                                                      : end - start + 1);
      text.insert(LineStart(rng, text), line);
      break;
    }
    case 4:
      text.insert(at(), 1, rng.NextBool(0.5) ? '\n' : '\r');
      break;
    case 5:
      text.insert(at(), 1,
                  rng.NextBool(0.3)
                      ? '\0'
                      : static_cast<char>(0x80 + rng.NextBelow(0x80)));
      break;
    default:
      if (!text.empty()) {
        const auto i = rng.NextBelow(text.size());
        text.erase(i, 1 + rng.NextBelow(std::min<std::size_t>(
                              8, text.size() - i)));
      }
      break;
  }
}

std::string Mutate(Rng& rng, const std::vector<std::string>& tokens,
                   std::string text) {
  const int edits = 1 + static_cast<int>(rng.NextBelow(4));
  for (int e = 0; e < edits; ++e) MutateOnce(rng, tokens, text);
  return text;
}

std::set<std::string> KeysOf(const verify::Report& report) {
  std::set<std::string> keys;
  for (const auto& f : report.findings()) keys.insert(f.BaselineKey());
  return keys;
}

// ---------------------------------------------------------- policy DSL

const std::vector<std::string> kPolicyTokens = {
    "default ", "rule ", " prio ", " device ", " when ", " posture ",
    " in ", "{", "}", ",", "==", " && ", "\\", "#", "ctx:cam", "env:x",
    "quarantine", "monitor", "nowhere", "-1", "99999999999999999999", " "};

/// Posture names the lint tool resolves in policy files.
policy::PostureCatalog Catalog() {
  const auto lan = *net::Ipv4Prefix::Parse("10.0.0.0/24");
  policy::PostureCatalog catalog;
  catalog.Register("trust", core::TrustPosture());
  catalog.Register("monitor", core::MonitorPosture());
  catalog.Register("quarantine", core::QuarantinePosture());
  catalog.Register("firewall", core::FirewallPosture(lan));
  catalog.Register("dns_guard", core::DnsGuardPosture(lan));
  return catalog;
}

/// Device names in `text` ("... device NAME ..."), numbered in order.
std::map<std::string, DeviceId> DeviceIds(const std::string& text) {
  std::map<std::string, DeviceId> ids;
  const auto tokens = SplitWhitespace(text);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i] == "device" && !ids.count(tokens[i + 1])) {
      ids.emplace(tokens[i + 1], static_cast<DeviceId>(ids.size() + 1));
    }
  }
  return ids;
}

/// Parses `text`, checks its error lines, and quotes the errors as P008
/// findings into `report`. Returns whether it parsed.
bool CheckPolicy(const std::string& text, verify::Report& report) {
  const auto parsed = policy::ParsePolicyText(text, DeviceIds(text), Catalog());
  for (const auto& error : parsed.errors) {
    const int line = ReportedLine(error);
    EXPECT_GE(line, 1) << error;
    EXPECT_LE(line, LineCount(text)) << error;
    report.Add("P008", verify::Severity::kError, "policy file", error);
  }
  return parsed.ok();
}

// -------------------------------------------------------- Snort-lite

const std::vector<std::string> kRuleTokens = {
    "(", ")", ";", ":", "\"", "|", "|0a|", " ", "->", "any", "content:",
    "nocase;", "msg:", "sid:", "http_path:", "iotcmd:reboot;", "#",
    "10.0.0.0/8", "/33", "65536", "block ", "alert udp any any -> any 5009 ",
    "; msg:\"odd\"quote\" ", "; http_path:\"/a\"", "; content:\"|7c|\""};

/// Parses `text`, checks every property, and lints it into `report`.
/// Returns how many rules it accepted.
std::size_t CheckRules(const std::string& text, verify::Report& report) {
  const int lines = LineCount(text);
  std::vector<std::string> errors;
  sig::RuleLines where;
  const auto rules = sig::ParseRules(text, &errors, &where);

  EXPECT_EQ(where.rules.size(), rules.size());
  EXPECT_TRUE(std::is_sorted(where.rules.begin(), where.rules.end()));
  for (const int line : where.rules) {
    EXPECT_GE(line, 1);
    EXPECT_LE(line, lines);
  }
  // The plain error list and the positioned one agree line for line.
  EXPECT_EQ(where.errors.size(), errors.size());
  for (std::size_t i = 0; i < where.errors.size() && i < errors.size(); ++i) {
    const auto& [line, reason] = where.errors[i];
    EXPECT_GE(line, 1) << reason;
    EXPECT_LE(line, lines) << reason;
    EXPECT_EQ(errors[i],
              "line " + std::to_string(line) + ": " + reason);
  }

  for (const auto& rule : rules) {
    const std::string text_form = rule.ToText();
    std::string error;
    const auto again = sig::ParseRule(text_form, &error);
    EXPECT_TRUE(again.has_value()) << text_form << ": " << error;
    if (again) {
      EXPECT_EQ(again->ToText(), text_form);
    }
  }

  verify::Report lint;
  verify::LintRulesText(text, "rules fuzz", lint);
  for (const auto& f : lint.findings()) {
    EXPECT_GE(f.line, 0) << f.ToString();
    EXPECT_LE(f.line, lines) << f.ToString();
    report.Add(f);
  }
  return rules.size();
}

// ------------------------------------------------------- rollout plans

const std::vector<std::string> kPlanTokens = {
    "sku ", "target ", "rollback ", "stage ", " hold ", "version ",
    " signed", " unsigned", "0", "1000", "1001", "2s", "5ms", "-1",
    "18446744073709551616", "#", " ", "\t"};

/// Parses `text`, checks its error line, and lints it into `report`.
/// Returns whether it parsed.
bool CheckPlan(const std::string& text, verify::Report& report) {
  rollout::RolloutPlan plan;
  std::string error;
  const bool ok = rollout::ParseRolloutPlan(text, &plan, &error);
  if (!ok) {
    // A missing directive names no line; anything else names its own.
    if (StartsWith(error, "line ")) {
      const int line = ReportedLine(error);
      EXPECT_GE(line, 1) << error;
      EXPECT_LE(line, LineCount(text)) << error;
    }
  }
  verify::LintRolloutPlan(text, "rollout plan fuzz", report);
  return ok;
}

// ----------------------------------------------------------- baselines

const std::vector<std::string> kBaselineTokens = {"\t", "\r", "#", " ",
                                                  "\n", "R004", "\r\n"};

void CheckBaselineText(const std::string& text) {
  for (const auto& key : verify::ParseBaseline(text)) {
    EXPECT_EQ(key.find('\n'), std::string::npos);
    EXPECT_FALSE(key.empty());
    EXPECT_NE(key.front(), '#');
  }
}

void CheckBaselineRoundTrip(verify::Report& report) {
  report.Finalize();
  EXPECT_EQ(verify::ParseBaseline(verify::FormatBaseline(report)),
            KeysOf(report));
}

// -------------------------------------------------------------- tests

TEST(TextParserSeedsTest, ShippedFixturesParse) {
  const auto policies = Fixtures(".pol");
  const auto rules = Fixtures(".rules");
  const auto plans = Fixtures(".plan");
  ASSERT_GE(policies.size(), 3u);
  ASSERT_GE(rules.size(), 4u);
  ASSERT_GE(plans.size(), 2u);
  verify::Report report;
  for (const auto& text : policies) EXPECT_TRUE(CheckPolicy(text, report));
  for (const auto& text : rules) EXPECT_GT(CheckRules(text, report), 0u);
  for (const auto& text : plans) EXPECT_TRUE(CheckPlan(text, report));
  // The defect fixtures leave findings for the baseline seed.
  report.Finalize();
  EXPECT_FALSE(report.findings().empty());
  CheckBaselineRoundTrip(report);
}

class TextParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TextParserFuzzTest, ParsersSurviveHostileText) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto policies = Fixtures(".pol");
  const auto rules = Fixtures(".rules");
  const auto plans = Fixtures(".plan");

  verify::Report seed_report;
  for (const auto& text : rules) verify::LintRulesText(text, "r", seed_report);
  for (const auto& text : plans) {
    verify::LintRolloutPlan(text, "p", seed_report);
  }
  seed_report.Finalize();
  const std::string baseline = verify::FormatBaseline(seed_report);

  int policies_ok = 0;
  int plans_ok = 0;
  std::size_t rules_ok = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    verify::Report report;
    const std::string policy =
        Mutate(rng, kPolicyTokens, policies[rng.NextBelow(policies.size())]);
    const std::string rule_text =
        Mutate(rng, kRuleTokens, rules[rng.NextBelow(rules.size())]);
    const std::string plan =
        Mutate(rng, kPlanTokens, plans[rng.NextBelow(plans.size())]);
    {
      SCOPED_TRACE("policy: " + ::testing::PrintToString(policy));
      policies_ok += CheckPolicy(policy, report) ? 1 : 0;
    }
    {
      SCOPED_TRACE("rules: " + ::testing::PrintToString(rule_text));
      rules_ok += CheckRules(rule_text, report);
    }
    {
      SCOPED_TRACE("plan: " + ::testing::PrintToString(plan));
      plans_ok += CheckPlan(plan, report) ? 1 : 0;
    }
    CheckBaselineRoundTrip(report);
    const std::string hostile_baseline =
        Mutate(rng, kBaselineTokens, baseline);
    SCOPED_TRACE("baseline: " + ::testing::PrintToString(hostile_baseline));
    CheckBaselineText(hostile_baseline);
    if (HasFailure()) return;
  }
  // The mutations must leave accepted inputs in every language.
  EXPECT_GT(policies_ok, 100);
  EXPECT_GT(plans_ok, 100);
  EXPECT_GT(rules_ok, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextParserFuzzTest,
                         ::testing::Values(5, 19, 31, 43, 59, 71, 83, 101));

}  // namespace
}  // namespace iotsec
