// iotsec-verify: the whole-deployment static verifier.
//
// Each check gets a seeded-defect fixture asserting the exact finding
// code, plus clean fixtures asserting zero findings — the same contract
// CI's iotsec_lint gate enforces over examples/lint/.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/postures.h"
#include "dataplane/graph.h"
#include "learn/attack_graph.h"
#include "sig/corpus.h"
#include "sig/rule.h"
#include "sig/ruleset.h"
#include "verify/coverage.h"
#include "verify/diff_verify.h"
#include "verify/graph_lint.h"
#include "verify/model_check.h"
#include "verify/policy_check.h"
#include "verify/rollout_lint.h"
#include "verify/rules_lint.h"
#include "verify/verifier.h"

namespace iotsec::verify {
namespace {

std::vector<std::string> Codes(const Report& report) {
  std::vector<std::string> codes;
  for (const auto& f : report.findings()) codes.push_back(f.code);
  return codes;
}

bool Has(const Report& report, const std::string& code) {
  const auto codes = Codes(report);
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

// ---- RuleSet::Lint ---------------------------------------------------

std::vector<sig::Rule> ParseAll(const std::string& text) {
  return sig::ParseRules(text);
}

TEST(RuleSetLint, FlagsEmptyPattern) {
  const auto rules = ParseAll(
      "alert tcp any any -> any 80 (msg:\"empty\"; sid:1; content:\"\"; )\n");
  const auto issues = sig::RuleSet::Lint(rules);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].code, "R001");
  EXPECT_EQ(issues[0].rule_index, 0u);
}

TEST(RuleSetLint, FlagsDuplicateSid) {
  const auto rules = ParseAll(
      "alert tcp any any -> any 80 (msg:\"a\"; sid:7; content:\"aaa\"; )\n"
      "alert tcp any any -> any 80 (msg:\"b\"; sid:7; content:\"bbb\"; )\n");
  const auto issues = sig::RuleSet::Lint(rules);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].code, "R002");
  EXPECT_EQ(issues[0].rule_index, 1u);
}

TEST(RuleSetLint, FlagsCaseFoldedDuplicatePatterns) {
  // The DFA case-folds all patterns: "MiRaI" and "mirai" compile to the
  // same states.
  const auto rules = ParseAll(
      "alert tcp any any -> any 80 (msg:\"a\"; sid:1; content:\"MiRaI\"; )\n"
      "alert tcp any any -> any 80 (msg:\"b\"; sid:2; content:\"mirai\"; )\n");
  const auto issues = sig::RuleSet::Lint(rules);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].code, "R003");
  EXPECT_EQ(issues[0].rule_index, 1u);
}

TEST(RuleSetLint, CleanRulesetHasNoIssues) {
  const auto rules = ParseAll(
      "alert tcp any any -> any 80 (msg:\"a\"; sid:1; content:\"alpha\"; )\n"
      "alert tcp any any -> any 80 (msg:\"b\"; sid:2; content:\"beta\"; )\n");
  EXPECT_TRUE(sig::RuleSet::Lint(rules).empty());
}

TEST(RuleSetLint, BuiltinCorpusIsClean) {
  EXPECT_TRUE(sig::RuleSet::Lint(sig::BuiltinRules()).empty());
}

TEST(RulesLint, ReportsParseErrorsWithLinePosition) {
  Report report;
  LintRulesText("this is not a rule\n", "rules test", report);
  report.Finalize();
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].code, "R004");
  EXPECT_EQ(report.findings()[0].line, 1);
}

// ---- rollout plan lint (R005) ----------------------------------------

Report LintPlan(const std::string& plan) {
  Report report;
  LintRolloutPlan(plan, "plan test", report);
  report.Finalize();
  return report;
}

constexpr char kCleanPlan[] =
    "sku Wemo-Insight\n"
    "target 5\n"
    "rollback 4\n"
    "stage 50 hold 2s\n"
    "stage 1000 hold 5s\n"
    "version 4 signed\n"
    "version 5 signed\n";

TEST(RolloutPlanLint, CleanPlanHasNoFindings) {
  EXPECT_TRUE(LintPlan(kCleanPlan).findings().empty());
}

TEST(RolloutPlanLint, UnparseablePlanIsAnError) {
  const auto report = LintPlan("sku S\nfrobnicate 7\n");
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].code, "R005");
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
}

TEST(RolloutPlanLint, MissingRollbackTargetIsAnError) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nstage 50 hold 1s\nstage 1000 hold 1s\n"
      "version 2 signed\n");
  ASSERT_TRUE(Has(report, "R005"));
  EXPECT_NE(report.findings()[0].message.find("rollback"),
            std::string::npos);
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
}

TEST(RolloutPlanLint, UnsignedTargetsAreErrors) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nstage 50 hold 1s\nstage 1000 hold 1s\n"
      "version 1 unsigned\nversion 2 unsigned\n");
  int errors = 0;
  for (const auto& f : report.findings()) {
    EXPECT_EQ(f.code, "R005");
    if (f.severity == Severity::kError) ++errors;
  }
  EXPECT_EQ(errors, 2) << "both the target and the rollback are unsigned";
}

TEST(RolloutPlanLint, RollbackNotBelowTargetIsAnError) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 2\nstage 50 hold 1s\nstage 1000 hold 1s\n"
      "version 2 signed\n");
  ASSERT_TRUE(Has(report, "R005"));
  EXPECT_NE(report.findings()[0].message.find("not below"),
            std::string::npos);
}

TEST(RolloutPlanLint, StraightToFleetIsAWarning) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nstage 1000 hold 1s\n"
      "version 1 signed\nversion 2 signed\n");
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].code, "R005");
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
  EXPECT_NE(report.findings()[0].message.find("straight to the whole fleet"),
            std::string::npos);
}

TEST(RolloutPlanLint, ZeroPermilleFirstStageIsAWarning) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nstage 0 hold 1s\nstage 50 hold 1s\n"
      "stage 1000 hold 1s\nversion 1 signed\nversion 2 signed\n");
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
}

TEST(RolloutPlanLint, NonWideningLadderIsAnError) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nstage 250 hold 1s\nstage 100 hold 1s\n"
      "stage 1000 hold 1s\nversion 1 signed\nversion 2 signed\n");
  ASSERT_TRUE(Has(report, "R005"));
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
  EXPECT_NE(report.findings()[0].message.find("strictly widen"),
            std::string::npos);
}

TEST(RolloutPlanLint, ShippedFixturesMatchTheCiContract) {
  // examples/lint/clean_rollout.plan must stay clean and the seeded
  // defect fixture must keep tripping the gate (same contract CI runs).
  const auto clean = LintPlan(
      "sku Wemo-Insight\ntarget 5\nrollback 4\n"
      "stage 50 hold 2s\nstage 250 hold 2s\nstage 1000 hold 5s\n"
      "version 4 signed\nversion 5 signed\n");
  EXPECT_TRUE(clean.findings().empty());
  const auto defect = LintPlan(
      "sku Wemo-Insight\ntarget 5\nstage 1000 hold 2s\n"
      "version 5 unsigned\n");
  int errors = 0;
  int warns = 0;
  for (const auto& f : defect.findings()) {
    (f.severity == Severity::kError ? errors : warns) += 1;
  }
  EXPECT_GE(errors, 2) << "missing rollback + unsigned target";
  EXPECT_GE(warns, 1) << "straight-to-fleet stage ladder";
}

// ---- µmbox graph lint ------------------------------------------------

Report LintGraph(const std::string& config) {
  Report report;
  LintGraphConfig(config, {}, "graph", report);
  report.Finalize();
  return report;
}

TEST(GraphLint, BuildFailureCarriesPosition) {
  const auto report = LintGraph("cnt :: Counter\nbad :: Nope\n");
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].code, "G001");
  EXPECT_EQ(report.findings()[0].line, 2);
  EXPECT_GT(report.findings()[0].col, 0);
}

TEST(GraphLint, LegacyBuildErrorStringCarriesPosition) {
  // Satellite: MboxGraph::Build's plain-string error now embeds the
  // line:col position so any existing caller's message is addressable.
  std::string error;
  const auto graph =
      dataplane::MboxGraph::Build("cnt :: Counter\nbad :: Nope\n", {}, &error);
  EXPECT_EQ(graph, nullptr);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
}

TEST(GraphLint, FlagsUnknownConfigKey) {
  const auto report = LintGraph(
      "rl :: RateLimiter(rate_pps=10, brust=5)\nentry rl\n");
  ASSERT_TRUE(Has(report, "G002"));
  const auto& f = report.findings()[0];
  EXPECT_EQ(f.line, 1);
  EXPECT_GT(f.col, 1);  // points at the key, not the line start
}

TEST(GraphLint, PositionsCountTheNewlinesOfAQuotedValue) {
  // The rules value spans two lines, so `brust` sits on line 2.
  const auto report = LintGraph(
      "sig :: SignatureMatcher(rules=\"alert udp any any -> any 1 (sid:1; )\n"
      "alert udp any any -> any 2 (sid:2; )\", brust=1)\n");
  ASSERT_EQ(Codes(report), std::vector<std::string>{"G002"});
  EXPECT_EQ(report.findings()[0].line, 2);
  EXPECT_EQ(report.findings()[0].col, 40);

  dataplane::GraphDiag diag;
  EXPECT_EQ(dataplane::MboxGraph::Build(
                "a :: Counter(k=\"x\ny\") zz\n", {}, &diag),
            nullptr);
  EXPECT_EQ(diag.ToString(), "line 2:5: unexpected text after ')'");
}

TEST(GraphLint, FlagsUnreachableElement) {
  const auto report =
      LintGraph("a :: Counter\nb :: Counter\nentry a\n");
  EXPECT_EQ(Codes(report), std::vector<std::string>{"G003"});
}

TEST(GraphLint, FlagsWiringCycle) {
  const auto report =
      LintGraph("a :: Counter\nb :: Counter\nentry a\na -> b\nb -> a\n");
  EXPECT_EQ(Codes(report), std::vector<std::string>{"G004"});
}

TEST(GraphLint, FlagsPortBeyondArity) {
  // Counter only emits on port 0; wiring port 1 is dead downstream.
  const auto report =
      LintGraph("c :: Counter\nd :: Discard\nentry c\nc [1] -> d\n");
  EXPECT_TRUE(Has(report, "G005"));
}

TEST(GraphLint, FlagsDanglingPortBypassingSecurity) {
  const auto report = LintGraph(
      "cnt :: Counter\nsplit :: Tee(ports=2)\n"
      "sig :: SignatureMatcher(rules=builtin)\n"
      "entry cnt\ncnt -> split\nsplit [0] -> sig\n");
  EXPECT_EQ(Codes(report), std::vector<std::string>{"G006"});
}

TEST(GraphLint, TerminalSecurityElementIsNotDangling) {
  // The last element of a chain legitimately egresses on its unconnected
  // port — that is the normal exit, not a bypass.
  const auto report = LintGraph(
      "cnt :: Counter\nsig :: SignatureMatcher(rules=builtin)\n"
      "entry cnt\ncnt -> sig\n");
  EXPECT_TRUE(report.findings().empty()) << report.ToText();
}

TEST(GraphLint, InlineSignatureRulesAreLinted) {
  // Config values strip quotes, so inline rules have unquoted fields. A
  // valid one lints clean; the R0xx fixtures exercise the shared lint
  // through --rules files.
  const auto report = LintGraph(
      "sig :: SignatureMatcher(rules=alert tcp any any -> any 80 "
      "(msg:inline; sid:5; content:evil; ))\nentry sig\n");
  EXPECT_TRUE(report.findings().empty()) << report.ToText();
}

TEST(GraphLint, CanonicalPosturesAreClean) {
  for (const auto& posture :
       {core::MonitorPosture(), core::QuarantinePosture(),
        core::ContextGatePosture(proto::IotCommand::kTurnOn,
                                 "device.cam.state", "person_detected")}) {
    Report report;
    LintGraphConfig(posture.umbox_config, {}, posture.profile, report);
    report.Finalize();
    EXPECT_TRUE(report.findings().empty())
        << posture.profile << ":\n" << report.ToText();
  }
}

// ---- policy checks ---------------------------------------------------

policy::StateSpace CamSpace() {
  policy::StateSpace space;
  policy::Dimension ctx;
  ctx.name = "ctx:cam";
  ctx.kind = policy::DimensionKind::kDeviceContext;
  ctx.device = 1;
  ctx.values = policy::DefaultSecurityContexts();
  space.AddDimension(std::move(ctx));
  return space;
}

Report CheckCamPolicy(const policy::FsmPolicy& policy,
                      const policy::StateSpace& space) {
  PolicyCheckInput in;
  in.space = &space;
  in.policy = &policy;
  in.devices = {1};
  in.device_names = {{1, "cam"}};
  Report report;
  CheckPolicy(in, report);
  report.Finalize();
  return report;
}

TEST(PolicyCheck, NonExhaustiveTrustDefaultFailsOpen) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  policy::PolicyRule rule;
  rule.name = "only-compromised";
  rule.when = policy::StatePredicate::Eq("ctx:cam", "compromised");
  rule.device = 1;
  rule.posture = core::QuarantinePosture();
  rule.priority = 10;
  policy.Add(rule);

  const auto report = CheckCamPolicy(policy, space);
  EXPECT_TRUE(Has(report, "P001")) << report.ToText();
  EXPECT_TRUE(Has(report, "P004")) << report.ToText();
}

TEST(PolicyCheck, ExhaustiveMonitorDefaultIsClean) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  const auto report = CheckCamPolicy(policy, space);
  EXPECT_TRUE(report.findings().empty()) << report.ToText();
}

TEST(PolicyCheck, ShadowedRuleIsDeadToo) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule broad;
  broad.name = "broad";
  broad.when.AndIn("ctx:cam", {"suspicious", "compromised"});
  broad.device = 1;
  broad.posture = core::QuarantinePosture();
  broad.priority = 10;
  policy.Add(broad);
  policy::PolicyRule narrow = broad;
  narrow.name = "narrow";
  narrow.when = policy::StatePredicate::Eq("ctx:cam", "suspicious");
  narrow.priority = 5;
  policy.Add(narrow);

  const auto report = CheckCamPolicy(policy, space);
  EXPECT_TRUE(Has(report, "P002")) << report.ToText();
  EXPECT_TRUE(Has(report, "P005")) << report.ToText();
}

TEST(PolicyCheck, SamePriorityConflict) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule a;
  a.name = "a";
  a.when = policy::StatePredicate::Eq("ctx:cam", "suspicious");
  a.device = 1;
  a.posture = core::QuarantinePosture();
  a.priority = 10;
  policy.Add(a);
  policy::PolicyRule b = a;
  b.name = "b";
  b.posture = core::MonitorPosture();
  policy.Add(b);

  EXPECT_TRUE(Has(CheckCamPolicy(policy, space), "P003"));
}

TEST(PolicyCheck, UnsatisfiablePredicates) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule typo_dim;
  typo_dim.name = "typo-dim";
  typo_dim.when = policy::StatePredicate::Eq("ctx:camm", "suspicious");
  typo_dim.device = 1;
  typo_dim.posture = core::QuarantinePosture();
  typo_dim.priority = 10;
  policy.Add(typo_dim);
  policy::PolicyRule typo_value;
  typo_value.name = "typo-value";
  typo_value.when = policy::StatePredicate::Eq("ctx:cam", "suspiciouss");
  typo_value.device = 1;
  typo_value.posture = core::QuarantinePosture();
  typo_value.priority = 5;
  policy.Add(typo_value);

  const auto report = CheckCamPolicy(policy, space);
  std::size_t p006 = 0;
  for (const auto& f : report.findings()) {
    if (f.code == "P006") ++p006;
  }
  EXPECT_EQ(p006, 2u) << report.ToText();
}

TEST(PolicyCheck, TunnelIntoEmptyConfig) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule rule;
  rule.name = "empty-tunnel";
  rule.when = policy::StatePredicate::Any();
  rule.device = 1;
  rule.posture.profile = "broken";
  rule.posture.umbox_config = "";
  rule.posture.tunnel = true;
  rule.priority = 10;
  policy.Add(rule);

  EXPECT_TRUE(Has(CheckCamPolicy(policy, space), "P007"));
}

// ---- attack-path coverage --------------------------------------------

learn::AttackGraph TwoStageGraph() {
  learn::AttackGraph graph;
  graph.AddFact("net_access");
  graph.AddExploit(
      {"compromise cam", {"net_access"}, {"ctrl:dev:cam"}, DeviceId{1}});
  graph.AddExploit(
      {"pivot to entry", {"ctrl:dev:cam"}, {"physical_entry"}, DeviceId{1}});
  return graph;
}

Report CheckCoverage(const policy::FsmPolicy& policy,
                     const policy::StateSpace& space,
                     const learn::AttackGraph& graph) {
  CoverageInput in;
  in.space = &space;
  in.policy = &policy;
  in.attack_graph = &graph;
  in.device_names = {{1, "cam"}};
  Report report;
  CheckAttackCoverage(in, report);
  report.Finalize();
  return report;
}

TEST(Coverage, UncoveredPathIsAnError) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  const auto report = CheckCoverage(policy, space, TwoStageGraph());
  EXPECT_EQ(Codes(report), std::vector<std::string>{"X001"});
}

TEST(Coverage, AlwaysGuardedPathIsCovered) {
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  const auto report = CheckCoverage(policy, space, TwoStageGraph());
  EXPECT_EQ(Codes(report), std::vector<std::string>{"X003"});
}

TEST(Coverage, GuardThatEvaporatesOnCompromiseIsPartial) {
  // The posture enforces only while the context is "normal": once step 1
  // flips ctx:cam to "compromised", the guard disappears — exactly the
  // fail-open shape X002 exists for.
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  policy::PolicyRule rule;
  rule.name = "guard-only-normal";
  rule.when = policy::StatePredicate::Eq("ctx:cam", "normal");
  rule.device = 1;
  rule.posture = core::QuarantinePosture();
  rule.priority = 10;
  policy.Add(rule);

  const auto report = CheckCoverage(policy, space, TwoStageGraph());
  EXPECT_TRUE(Has(report, "X002")) << report.ToText();
}

TEST(Coverage, SingleStagePlansAreSkipped) {
  learn::AttackGraph graph;
  graph.AddFact("net_access");
  graph.AddExploit(
      {"compromise cam", {"net_access"}, {"ctrl:dev:cam"}, DeviceId{1}});
  const auto space = CamSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  EXPECT_TRUE(CheckCoverage(policy, space, graph).findings().empty());
}

// ---- attack graph path export ----------------------------------------

TEST(AttackGraphExport, ReachableGoalsAndPlansAreDeterministic) {
  const auto graph = TwoStageGraph();
  const auto goals = graph.ReachableGoals();
  ASSERT_EQ(goals.size(), 2u);
  EXPECT_EQ(goals[0], "physical_entry");
  EXPECT_EQ(goals[1], "ctrl:dev:cam");
  const auto plans = graph.ExportPaths(goals);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].goal, "physical_entry");
  EXPECT_TRUE(plans[0].IsMultiStage());
  EXPECT_FALSE(plans[1].IsMultiStage());
}

// ---- orchestration ---------------------------------------------------

TEST(Verifier, SynthesizedSpaceMakesFilePoliciesCheckable) {
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule rule;
  rule.name = "smoke";
  rule.when = policy::StatePredicate::Eq("env:smoke", "on");
  rule.device = 1;
  rule.posture = core::QuarantinePosture();
  rule.priority = 10;
  policy.Add(rule);

  const auto space = SynthesizeStateSpace(policy, {{1, "cam"}});
  ASSERT_TRUE(space.IndexOf("ctx:cam").has_value());
  const auto smoke = space.IndexOf("env:smoke");
  ASSERT_TRUE(smoke.has_value());
  // "__other__" leads so the initial state does not satisfy the rule.
  EXPECT_EQ(space.Dim(*smoke).values.front(), "__other__");
  EXPECT_EQ(space.Dim(*smoke).values.size(), 2u);

  VerifyInput in;
  in.space = &space;
  in.policy = &policy;
  in.devices = {1};
  in.device_names = {{1, "cam"}};
  const auto report = Verify(in);
  EXPECT_TRUE(report.findings().empty()) << report.ToText();
}

TEST(Verifier, VerifyLintsEveryDistinctPostureGraph) {
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule rule;
  rule.name = "cyclic";
  rule.when = policy::StatePredicate::Any();
  rule.device = 1;
  rule.posture.profile = "cyclic";
  rule.posture.umbox_config =
      "a :: Counter\nb :: Counter\nentry a\na -> b\nb -> a\n";
  rule.priority = 10;
  policy.Add(rule);

  VerifyInput in;
  in.policy = &policy;  // no state space: graph layer still runs
  const auto report = Verify(in);
  EXPECT_EQ(Codes(report), std::vector<std::string>{"G004"});
}

// ---- G007: deployment boot-queue sizing ------------------------------

TEST(Verifier, FlagsZeroBootQueueLimitAsBlackhole) {
  VerifyInput in;  // limits alone are checkable — no policy needed
  VerifyInput::DeploymentLimits limits;
  limits.boot_queue_limit = 0;
  limits.queue_while_booting = true;
  in.limits = limits;
  const auto report = Verify(in);
  ASSERT_EQ(Codes(report), std::vector<std::string>{"G007"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
}

TEST(Verifier, ZeroBootQueueLimitIsFineWithoutBootQueueing) {
  VerifyInput in;
  VerifyInput::DeploymentLimits limits;
  limits.boot_queue_limit = 0;
  limits.queue_while_booting = false;  // drops are the declared intent
  in.limits = limits;
  EXPECT_TRUE(Verify(in).findings().empty());
}

TEST(Verifier, WarnsWhenBootQueuesCanSwallowThePool) {
  VerifyInput in;
  VerifyInput::DeploymentLimits limits;
  limits.boot_queue_limit = 4096;
  limits.cluster_slots = 64;  // 262144 parked packets possible...
  limits.pool_capacity = 10000;  // ...against a 10k pool budget
  in.limits = limits;
  const auto report = Verify(in);
  ASSERT_EQ(Codes(report), std::vector<std::string>{"G007"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
}

TEST(Verifier, ProportionateLimitsProduceNoG007) {
  VerifyInput in;
  VerifyInput::DeploymentLimits limits;
  limits.boot_queue_limit = 256;
  limits.cluster_slots = 4;
  limits.pool_capacity = 10000;
  in.limits = limits;
  EXPECT_TRUE(Verify(in).findings().empty());

  // No declared pool budget: the aggregate warning is skipped entirely.
  limits.boot_queue_limit = 1 << 20;
  limits.cluster_slots = 1024;
  limits.pool_capacity = 0;
  in.limits = limits;
  EXPECT_TRUE(Verify(in).findings().empty());
}

TEST(Report, OrderIsDeterministicAndSeverityFirst) {
  Report report;
  report.Add("X003", Severity::kInfo, "b", "info");
  report.Add("P002", Severity::kWarn, "a", "warn");
  report.Add("G004", Severity::kError, "c", "error");
  report.Add("G004", Severity::kError, "c", "error");  // exact dup
  report.Finalize();
  ASSERT_EQ(report.findings().size(), 3u);
  EXPECT_EQ(report.findings()[0].code, "G004");
  EXPECT_EQ(report.findings()[1].code, "P002");
  EXPECT_EQ(report.findings()[2].code, "X003");
  EXPECT_TRUE(report.HasErrors());
  EXPECT_EQ(report.CountAtLeast(Severity::kWarn), 2u);
}

// ---- X004: federated placement vs cross-segment predicates -----------

/// "lock" (device 1, segment 0) quarantines when "cam" (device 2,
/// segment 1) goes compromised — a cross-segment read that only works
/// through the global delta-sync path.
policy::FsmPolicy CrossSegmentPolicy() {
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule rule;
  rule.name = "lock-on-cam-compromise";
  rule.when = policy::StatePredicate::Eq("ctx:cam", "compromised");
  rule.device = 1;
  rule.posture = core::QuarantinePosture();
  rule.priority = 10;
  policy.Add(rule);
  return policy;
}

VerifyInput::FederationTopology TwoSegments(bool reader_synced,
                                            bool owner_synced) {
  VerifyInput::FederationTopology fed;
  fed.segment_of = {{1, 0}, {2, 1}};
  if (reader_synced) fed.synced_segments.insert(0);
  if (owner_synced) fed.synced_segments.insert(1);
  return fed;
}

TEST(Verifier, X004FlagsCrossSegmentPredicateWithoutSyncPath) {
  const auto policy = CrossSegmentPolicy();
  VerifyInput in;
  in.policy = &policy;
  in.device_names = {{1, "lock"}, {2, "cam"}};
  // Reader segment has no global-sync path.
  in.federation = TwoSegments(/*reader_synced=*/false, /*owner_synced=*/true);
  const auto report = Verify(in);
  ASSERT_TRUE(Has(report, "X004")) << report.ToText();
  const auto& finding = report.findings()[0];
  EXPECT_EQ(finding.severity, Severity::kError);
  EXPECT_NE(finding.message.find("ctx:cam"), std::string::npos);

  // The owner's segment being unsynced is just as broken: the delta
  // never reaches the global tier.
  in.federation = TwoSegments(/*reader_synced=*/true, /*owner_synced=*/false);
  EXPECT_TRUE(Has(Verify(in), "X004"));
}

TEST(Verifier, X004CleanWhenSyncedOrColocated) {
  const auto policy = CrossSegmentPolicy();
  VerifyInput in;
  in.policy = &policy;
  in.device_names = {{1, "lock"}, {2, "cam"}};
  // Both segments synced: the cross-segment read has a path.
  in.federation = TwoSegments(/*reader_synced=*/true, /*owner_synced=*/true);
  EXPECT_FALSE(Has(Verify(in), "X004")) << Verify(in).ToText();

  // Same segment: the read never leaves the local controller, sync
  // paths are irrelevant.
  VerifyInput::FederationTopology colocated;
  colocated.segment_of = {{1, 0}, {2, 0}};
  in.federation = colocated;
  EXPECT_FALSE(Has(Verify(in), "X004")) << Verify(in).ToText();

  // Unplaced reader or owner: not checkable, not a finding.
  VerifyInput::FederationTopology partial;
  partial.segment_of = {{1, 0}};
  in.federation = partial;
  EXPECT_FALSE(Has(Verify(in), "X004")) << Verify(in).ToText();
}

// ---- finding-code catalogue (--list-rules registry) ------------------

TEST(FindingCatalogue, CoversEveryFamilyWithUniqueCodes) {
  const auto& catalogue = FindingCatalogue();
  // 8 P + 7 G + 5 R + 4 X + 4 M0xx + 2 M1xx.
  EXPECT_EQ(catalogue.size(), 30u);
  std::set<std::string> codes;
  for (const auto& info : catalogue) {
    EXPECT_TRUE(codes.insert(std::string(info.code)).second)
        << "duplicate code " << info.code;
    EXPECT_FALSE(info.summary.empty()) << info.code;
  }
  for (const char* code :
       {"P001", "P008", "G001", "G007", "R001", "R005", "X001", "X004",
        "M001", "M004", "M101", "M102"}) {
    EXPECT_TRUE(codes.count(code)) << code;
  }
}

TEST(FindingCatalogue, LookupFindsKnownAndRejectsUnknownCodes) {
  const auto* m002 = FindFindingCode("M002");
  ASSERT_NE(m002, nullptr);
  EXPECT_EQ(m002->severity, Severity::kError);
  EXPECT_EQ(FindFindingCode("Z999"), nullptr);
  EXPECT_EQ(FindFindingCode(""), nullptr);
}

// ---- deterministic ordering tie-breaks -------------------------------

TEST(Report, TieBreaksOnCodeThenMessage) {
  // Same severity, same object, same (absent) position: order must still
  // be total — code first, then message.
  Report report;
  report.Add("P002", Severity::kWarn, "same", "bbb");
  report.Add("G002", Severity::kWarn, "same", "zzz");
  report.Add("G002", Severity::kWarn, "same", "aaa");
  report.Finalize();
  ASSERT_EQ(report.findings().size(), 3u);
  EXPECT_EQ(report.findings()[0].code, "G002");
  EXPECT_EQ(report.findings()[0].message, "aaa");
  EXPECT_EQ(report.findings()[1].code, "G002");
  EXPECT_EQ(report.findings()[1].message, "zzz");
  EXPECT_EQ(report.findings()[2].code, "P002");
}

// ---- baseline suppression --------------------------------------------

TEST(Baseline, SuppressesOnlyKnownFindingsAndIgnoresPositions) {
  Report first;
  first.Add("G002", Severity::kWarn, "graph a", "unknown key 'brust'", 3, 7);
  first.Add("R001", Severity::kWarn, "rules b", "empty pattern");
  first.Finalize();
  const auto baseline = ParseBaseline(FormatBaseline(first));
  EXPECT_EQ(baseline.size(), 2u);

  Report second;
  // Same finding at a shifted position must still be suppressed.
  second.Add("G002", Severity::kWarn, "graph a", "unknown key 'brust'", 9, 2);
  second.Add("R001", Severity::kWarn, "rules b", "empty pattern");
  second.Add("G004", Severity::kError, "graph a", "cycle");  // new
  second.Finalize();
  EXPECT_EQ(second.SuppressBaseline(baseline), 2u);
  ASSERT_EQ(second.findings().size(), 1u);
  EXPECT_EQ(second.findings()[0].code, "G004");
  EXPECT_TRUE(second.HasErrors());
}

TEST(Baseline, ParserSkipsCommentsBlanksAndCarriageReturns) {
  const auto parsed = ParseBaseline(
      "# comment\n\nG002\tgraph a\tmsg\r\n  \nR001\trules b\tother\n");
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_TRUE(parsed.count("G002\tgraph a\tmsg"));
}

// ---- rollout plan lint edge cases (R005) ------------------------------

TEST(RolloutPlanLint, EmptyStageLadderIsAnError) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nversion 1 signed\nversion 2 signed\n");
  ASSERT_TRUE(Has(report, "R005"));
  EXPECT_NE(report.findings()[0].message.find("no stages declared"),
            std::string::npos);
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
}

TEST(RolloutPlanLint, PermilleBeyondThousandIsAnError) {
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nstage 50 hold 1s\nstage 1500 hold 1s\n"
      "version 1 signed\nversion 2 signed\n");
  bool found = false;
  for (const auto& f : report.findings()) {
    if (f.message.find("exceeds 1000") != std::string::npos) {
      found = true;
      EXPECT_EQ(f.severity, Severity::kError);
    }
  }
  EXPECT_TRUE(found) << report.ToText();
}

TEST(RolloutPlanLint, NamedStagesParseAndDuplicateNamesAreErrors) {
  const auto clean = LintPlan(
      "sku S\ntarget 2\nrollback 1\n"
      "stage canary 50 hold 1s\nstage fleet 1000 hold 1s\n"
      "version 1 signed\nversion 2 signed\n");
  EXPECT_TRUE(clean.findings().empty()) << clean.ToText();

  const auto dup = LintPlan(
      "sku S\ntarget 2\nrollback 1\n"
      "stage canary 50 hold 1s\nstage canary 250 hold 1s\n"
      "stage fleet 1000 hold 1s\n"
      "version 1 signed\nversion 2 signed\n");
  ASSERT_TRUE(Has(dup, "R005"));
  EXPECT_NE(dup.findings()[0].message.find("duplicate stage name 'canary'"),
            std::string::npos)
      << dup.ToText();
  EXPECT_EQ(dup.findings()[0].severity, Severity::kError);
}

TEST(RolloutPlanLint, MissingControlGroupIsAWarning) {
  // A fleet-only ladder leaves the health gate with no control group.
  const auto report = LintPlan(
      "sku S\ntarget 2\nrollback 1\nstage 1000 hold 1s\n"
      "version 1 signed\nversion 2 signed\n");
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
  EXPECT_NE(report.findings()[0].message.find("control group"),
            std::string::npos);
}

// ---- symbolic model checking (M0xx) ----------------------------------

policy::StateSpace PlugWindowSpace() {
  policy::StateSpace space;
  policy::Dimension plug;
  plug.name = "ctx:plug";
  plug.kind = policy::DimensionKind::kDeviceContext;
  plug.device = 1;
  plug.values = policy::DefaultSecurityContexts();
  space.AddDimension(std::move(plug));
  policy::Dimension window;
  window.name = "ctx:window";
  window.kind = policy::DimensionKind::kDeviceContext;
  window.device = 2;
  window.values = policy::DefaultSecurityContexts();
  space.AddDimension(std::move(window));
  policy::Dimension alarm;
  alarm.name = "env:alarm_armed";
  alarm.kind = policy::DimensionKind::kEnvVar;
  alarm.values = {"on", "off"};  // initial = "on"
  space.AddDimension(std::move(alarm));
  return space;
}

/// plug (backdoored) -> automation -> window -> physical entry: the
/// paper's multi-stage attack, as the learning pipeline would export it.
learn::AttackGraph PlugWindowGraph() {
  learn::AttackGraph graph;
  graph.AddFact("net_access");
  graph.AddExploit({"use backdoor channel on plug",
                    {"net_access"},
                    {"ctrl:dev:plug"},
                    DeviceId{1}});
  graph.AddExploit({"abuse automation plug => window",
                    {"ctrl:dev:plug"},
                    {"ctrl:dev:window"},
                    kInvalidDevice});
  graph.AddExploit({"physical entry via window",
                    {"ctrl:dev:window"},
                    {"physical_entry"},
                    DeviceId{2}});
  return graph;
}

/// Alert-only posture: Logger scans, nothing can drop.
policy::Posture ObservePosture() {
  policy::Posture p;
  p.profile = "observe";
  p.umbox_config = "cnt :: Counter()\nlog :: Logger()\ncnt -> log\n";
  return p;
}

/// Pure plumbing: tunneled, but nothing security-relevant in the chain —
/// its only strength is whatever the crowd/OTA splice contributes.
policy::Posture PlumbingPosture() {
  policy::Posture p;
  p.profile = "plumbing";
  p.umbox_config = "cnt :: Counter()\n";
  return p;
}

struct McFixture {
  policy::StateSpace space = PlugWindowSpace();
  policy::FsmPolicy policy;
  learn::AttackGraph graph = PlugWindowGraph();

  ModelCheckInput In() const {
    ModelCheckInput in;
    in.space = &space;
    in.policy = &policy;
    in.attack_graph = &graph;
    in.devices = {1, 2};
    in.device_names = {{1, "plug"}, {2, "window"}};
    in.goals = {"physical_entry"};
    return in;
  }
};

/// The seeded guard-evaporation fixture: the window is quarantined while
/// the alarm is armed, so the minimal counterexample must disarm it.
McFixture EvaporationFixture() {
  McFixture f;
  f.policy.SetDefault(core::TrustPosture());
  policy::PolicyRule guard;
  guard.name = "window-guard";
  guard.when = policy::StatePredicate::Eq("env:alarm_armed", "on");
  guard.device = 2;
  guard.posture = core::QuarantinePosture();
  guard.priority = 10;
  f.policy.Add(guard);
  return f;
}

constexpr char kEvaporationTrace[] =
    "1) exploit 'use backdoor channel on plug' on plug [default -> posture "
    "'trust' (guard none), ctx:plug -> compromised]  "
    "2) exploit 'abuse automation plug => window'  "
    "3) set env:alarm_armed = off (was on) [window: rule 'window-guard' -> "
    "default, posture 'quarantine' -> 'trust']  "
    "4) exploit 'physical entry via window' on window [default -> posture "
    "'trust' (guard none), ctx:window -> compromised]";

TEST(ModelCheck, MinimalEvaporationCounterexampleIsPinned) {
  const McFixture f = EvaporationFixture();
  const auto result = ModelCheck(f.In());
  ASSERT_EQ(result.verdicts.size(), 1u);
  const auto& v = result.verdicts[0];
  EXPECT_EQ(v.goal, "physical_entry");
  EXPECT_EQ(v.cls, GoalVerdict::Class::kUnguarded);
  EXPECT_TRUE(v.guard_evaporated);
  ASSERT_EQ(v.trace.steps.size(), 4u);
  EXPECT_EQ(v.trace.ToString(), kEvaporationTrace);
  EXPECT_FALSE(result.exhausted);

  Report report;
  ReportModelCheck(result, "fixture", report);
  report.Finalize();
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].code, "M002");
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
  EXPECT_EQ(report.findings()[0].message,
            std::string("attack path reaches 'physical_entry' after its "
                        "guard evaporates (4 step(s)): ") +
                kEvaporationTrace);
  EXPECT_NE(report.ToJson().find("\"code\":\"M002\""), std::string::npos);
}

TEST(ModelCheck, UnguardedPathWithNoInitialGuardIsM001) {
  McFixture f;
  f.policy.SetDefault(core::TrustPosture());
  const auto result = ModelCheck(f.In());
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].cls, GoalVerdict::Class::kUnguarded);
  EXPECT_FALSE(result.verdicts[0].guard_evaporated);
  // No rule reads the alarm, so no context step is needed: 3 attack hops.
  EXPECT_EQ(result.verdicts[0].trace.steps.size(), 3u);
  Report report;
  ReportModelCheck(result, "fixture", report);
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M001"});
}

TEST(ModelCheck, AlertOnlyGuardIsM003WithStrictTrace) {
  McFixture f;
  f.policy.SetDefault(ObservePosture());
  const auto result = ModelCheck(f.In());
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].cls, GoalVerdict::Class::kAlertOnly);
  EXPECT_EQ(result.verdicts[0].trace.steps.size(), 3u);
  Report report;
  ReportModelCheck(result, "fixture", report);
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M003"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
}

TEST(ModelCheck, BlockingGuardYieldsProofM004) {
  McFixture f;
  f.policy.SetDefault(core::QuarantinePosture());
  const auto result = ModelCheck(f.In());
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].cls, GoalVerdict::Class::kBlocked);
  EXPECT_TRUE(result.verdicts[0].trace.empty());
  Report report;
  ReportModelCheck(result, "fixture", report);
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M004"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kInfo);
}

TEST(ModelCheck, ExhaustedBudgetIsM004Warn) {
  const McFixture f = EvaporationFixture();
  auto in = f.In();
  in.config.max_depth = 0;  // nothing can be expanded
  const auto result = ModelCheck(in);
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_EQ(result.verdicts[0].cls, GoalVerdict::Class::kUnknown);
  EXPECT_TRUE(result.exhausted);
  Report report;
  ReportModelCheck(result, "fixture", report);
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M004"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
  EXPECT_NE(report.findings()[0].message.find("budget exhausted"),
            std::string::npos);
}

TEST(ModelCheck, RepeatedRunsAreByteDeterministic) {
  const McFixture f = EvaporationFixture();
  Report a;
  Report b;
  ReportModelCheck(ModelCheck(f.In()), "fixture", a);
  ReportModelCheck(ModelCheck(f.In()), "fixture", b);
  a.Finalize();
  b.Finalize();
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// ---- differential verification (M1xx) --------------------------------

constexpr char kBlockRule[] =
    "block udp any any -> any 5009 (msg:\"backdoor-channel\"; sid:9001; "
    "iot_backdoor; )";
constexpr char kAlertRule[] =
    "alert udp any any -> any 5009 (msg:\"backdoor-channel\"; sid:9001; "
    "iot_backdoor; )";

TEST(DiffVerify, WeakenedEnforcementIsM102Error) {
  McFixture f;
  f.policy.SetDefault(ObservePosture());
  auto base = f.In();
  base.extra_rule_texts = {kBlockRule};
  auto next = f.In();
  next.extra_rule_texts = {kAlertRule};
  Report report;
  EXPECT_FALSE(DiffVerify(base, next, "diff", report));
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M102"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
  EXPECT_NE(report.findings()[0].message.find("enforcement weakened"),
            std::string::npos);
}

TEST(DiffVerify, DroppedBlockRuleIsM101NewAttackPath) {
  McFixture f;
  f.policy.SetDefault(PlumbingPosture());
  auto base = f.In();
  base.extra_rule_texts = {kBlockRule};
  const auto next = f.In();  // no crowd rules at all
  Report report;
  EXPECT_FALSE(DiffVerify(base, next, "diff", report));
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M101"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kError);
  EXPECT_NE(report.findings()[0].message.find("new attack path"),
            std::string::npos);
}

TEST(DiffVerify, BenignAdditiveDeltaIsSilent) {
  McFixture f;
  f.policy.SetDefault(ObservePosture());
  auto base = f.In();
  base.extra_rule_texts = {kBlockRule};
  auto next = f.In();
  next.extra_rule_texts = {kBlockRule, kAlertRule};
  Report report;
  EXPECT_TRUE(DiffVerify(base, next, "diff", report));
  report.Finalize();
  EXPECT_TRUE(report.findings().empty()) << report.ToText();
}

TEST(DiffVerify, ShorterUnguardedPathIsM102Warn) {
  // Base: the evaporation fixture (4-step path). Next: the same world
  // without the window guard (3-step path) — already broken, but worse.
  const McFixture base_f = EvaporationFixture();
  McFixture next_f;
  next_f.policy.SetDefault(core::TrustPosture());
  Report report;
  EXPECT_TRUE(DiffVerify(base_f.In(), next_f.In(), "diff", report));
  report.Finalize();
  ASSERT_EQ(Codes(report), std::vector<std::string>{"M102"});
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarn);
  EXPECT_NE(report.findings()[0].message.find("got shorter"),
            std::string::npos);
}

// ---- guard strength of the launched chain ----------------------------

GuardStrength StrengthOf(const std::string& config,
                         std::vector<std::string> crowd_rules = {}) {
  GuardEvaluator guards({}, std::move(crowd_rules));
  policy::Posture posture;
  posture.umbox_config = config;
  return guards.Strength(posture);
}

TEST(GuardEvaluator, DistinguishesPlumbingFromSecurity) {
  EXPECT_EQ(StrengthOf("d :: Discard\nentry d\n"), GuardStrength::kBlocking);
  EXPECT_EQ(StrengthOf("l :: Logger\nentry l\n"), GuardStrength::kScanOnly);
  EXPECT_EQ(StrengthOf("c :: Counter\nentry c\n"), GuardStrength::kNone);
  EXPECT_EQ(StrengthOf(""), GuardStrength::kNone);
}

TEST(GuardEvaluator, SignatureMatcherWithoutRulesGuardsNothing) {
  // An empty or comment-only ruleset loads no rule, so the matcher
  // forwards every packet.
  EXPECT_EQ(StrengthOf("m :: SignatureMatcher(rules=\"\")\n"),
            GuardStrength::kNone);
  EXPECT_EQ(StrengthOf("m :: SignatureMatcher(rules=\"# none yet\")\n"),
            GuardStrength::kNone);
  EXPECT_EQ(StrengthOf("m :: SignatureMatcher(rules=builtin)\n"),
            GuardStrength::kBlocking);
}

TEST(GuardEvaluator, EveryPassJudgesAnEmptyMatcherAsNoGuard) {
  // Default and quarantine postures both run a matcher with no rules:
  // the policy (P001/P004), coverage (X001) and model-check (M001) passes
  // must all read the device as unguarded.
  policy::Posture empty_matcher;
  empty_matcher.profile = "empty-matcher";
  empty_matcher.umbox_config = "m :: SignatureMatcher(rules=\"\")\n";
  policy::FsmPolicy policy;
  policy.SetDefault(empty_matcher);
  policy::PolicyRule quarantine;
  quarantine.name = "quarantine-degraded";
  quarantine.when.AndIn("ctx:cam", {"suspicious", "compromised"});
  quarantine.device = 1;
  quarantine.posture = empty_matcher;
  quarantine.posture.profile = "quarantine";
  quarantine.priority = 10;
  policy.Add(quarantine);
  const auto space = CamSpace();
  const auto graph = TwoStageGraph();

  VerifyInput in;
  in.space = &space;
  in.policy = &policy;
  in.devices = {1};
  in.device_names = {{1, "cam"}};
  in.attack_graph = &graph;
  const Report report = Verify(in);
  EXPECT_TRUE(Has(report, "P001")) << report.ToText();
  EXPECT_TRUE(Has(report, "P004")) << report.ToText();
  EXPECT_TRUE(Has(report, "X001")) << report.ToText();

  ModelCheckInput mc;
  mc.space = &space;
  mc.policy = &policy;
  mc.attack_graph = &graph;
  mc.devices = {1};
  mc.device_names = {{1, "cam"}};
  Report model;
  ReportModelCheck(ModelCheck(mc), "model", model);
  model.Finalize();
  EXPECT_TRUE(Has(model, "M001")) << model.ToText();
  EXPECT_FALSE(Has(model, "M003")) << model.ToText();
}

TEST(GuardEvaluator, AlertRulesOnSeparateLinesAreScanOnly) {
  // A quoted rules value spans lines. The matcher loads both alert rules,
  // and the analysis reads what it loaded, not the builtin corpus.
  EXPECT_EQ(StrengthOf("sig :: SignatureMatcher(rules=\"alert udp any any -> "
                       "any 5009 (msg:backdoor; sid:9001; iot_backdoor; )\n"
                       "alert udp any any -> any 5010 (msg:recon; sid:9002; "
                       "iot_auth_absent; )\")\n"),
            GuardStrength::kScanOnly);
}

TEST(GuardEvaluator, CrowdRulesGuardNothingWhenTheChainCannotLaunch) {
  // `entry cnt` names no declared element: the spliced chain does not
  // build, the controller launches nothing, and the crowd rules in it
  // guard nothing.
  EXPECT_EQ(StrengthOf("count :: Counter()\nentry cnt\n", {kBlockRule}),
            GuardStrength::kNone);
}

TEST(GuardEvaluator, CrowdMatcherGuardsAChainWithItsOwnEntry) {
  // The splice makes the crowd matcher the entry and hands packets on to
  // the chain's declared entry, so a declared entry no longer hides it.
  const std::string config = "cnt :: Counter()\nentry cnt\n";
  EXPECT_EQ(StrengthOf(config), GuardStrength::kNone);
  EXPECT_EQ(StrengthOf(config, {kBlockRule}), GuardStrength::kBlocking);
  EXPECT_EQ(StrengthOf(config, {kAlertRule}), GuardStrength::kScanOnly);

  const auto graph = dataplane::MboxGraph::Build(
      dataplane::SpliceCrowdMatcher(config, {kBlockRule}), {},
      static_cast<std::string*>(nullptr));
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->entry()->name(), "crowd");
  ASSERT_FALSE(graph->entry()->wires().empty());
  EXPECT_EQ(graph->entry()->wires()[0].next, graph->Find("cnt"));
}

TEST(Report, JsonIsWellFormedAndEscaped) {
  Report report;
  report.Add("G001", Severity::kError, "graph \"x\"", "bad\nline", 2, 7);
  report.Finalize();
  const auto json = report.ToJson();
  EXPECT_NE(json.find("\"code\":\"G001\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"graph \\\"x\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("bad\\nline"), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace iotsec::verify
