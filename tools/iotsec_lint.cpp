// iotsec_lint: whole-deployment static verifier CLI.
//
// Verifies the three layers of an IoTSec deployment without running the
// simulator or pushing a packet:
//
//   policy     P0xx  exhaustiveness, conflicts, shadowing, dead rules,
//                    quarantine reachability, unsatisfiable predicates
//   dataplane  G0xx  µmbox graph lint (parse, wiring, arity, fail-open
//                    dangling ports), R0xx ruleset lint
//   cross      X0xx  every multi-stage attack path must traverse a
//                    guarded hop in every state the attack induces
//
// Usage:
//   iotsec_lint [--graph FILE]... [--rules FILE]... [--policy FILE]...
//               [--rollout-plan FILE]...
//               [--scenario smart_home|quickstart|fixture_uncovered|
//                           fixture_ota|all]
//               [--model-check] [--diff BASE NEXT]
//               [--baseline FILE] [--write-baseline FILE]
//               [--json FILE] [--format text|json] [--werror]
//   iotsec_lint --list-rules
//
// Modes on top of the rule-based lint:
//   --model-check     run the bounded symbolic explorer (M0xx findings)
//                     over every --scenario input
//   --diff BASE NEXT  differential verification: model-check each
//                     scenario with the crowd/OTA rule texts from BASE
//                     vs NEXT and report regressions only (M1xx)
//   --baseline FILE   suppress known findings (exit clean when no *new*
//                     findings); --write-baseline regenerates the file
//   --list-rules      print the finding-code catalogue and exit
//
// Exit status: 0 clean, 1 at least one error-severity finding (or any
// warning under --werror), 2 usage / IO failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/deployment.h"
#include "core/postures.h"
#include "learn/attack_graph.h"
#include "policy/dsl.h"
#include "verify/diff_verify.h"
#include "verify/graph_lint.h"
#include "verify/model_check.h"
#include "verify/rollout_lint.h"
#include "verify/rules_lint.h"
#include "verify/verifier.h"

using namespace iotsec;

namespace {

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Appends `from`'s findings into `into`, prefixing the object with a
/// unit label so one run over several inputs stays attributable.
void Merge(const verify::Report& from, const std::string& unit,
           verify::Report& into) {
  for (verify::Finding f : from.findings()) {
    if (!unit.empty()) f.object = unit + ": " + f.object;
    into.Add(std::move(f));
  }
}

/// Posture names resolvable from policy files. Parameterized builtins get
/// representative arguments — file mode checks structure, not addresses.
policy::PostureCatalog FilePostureCatalog() {
  const net::Ipv4Prefix lan(net::Ipv4Address(10, 0, 0, 0), 24);
  policy::PostureCatalog catalog;
  catalog.Register("trust", core::TrustPosture());
  catalog.Register("monitor", core::MonitorPosture());
  catalog.Register("quarantine", core::QuarantinePosture());
  catalog.Register("firewall", core::FirewallPosture(lan));
  catalog.Register("dns_guard", core::DnsGuardPosture(lan));
  catalog.Register("password_proxy",
                   core::PasswordProxyPosture(net::Ipv4Address(10, 0, 0, 50),
                                              "admin", "strong-pass", "admin",
                                              "admin"));
  catalog.Register("context_gate",
                   core::ContextGatePosture(proto::IotCommand::kTurnOn,
                                            "device.cam.state",
                                            "person_detected"));
  return catalog;
}

/// Device names mentioned in the policy text ("... device NAME ..."), in
/// first-appearance order, mapped to synthetic ids.
std::map<std::string, DeviceId> ScanDeviceNames(const std::string& text) {
  std::map<std::string, DeviceId> ids;
  DeviceId next = 1;
  const auto tokens = SplitWhitespace(text);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i] == "device" && !ids.count(tokens[i + 1])) {
      ids[tokens[i + 1]] = next++;
    }
  }
  return ids;
}

bool VerifyPolicyFile(const std::string& path, verify::Report& report) {
  std::string text;
  if (!ReadFile(path, text)) {
    std::fprintf(stderr, "iotsec_lint: cannot read %s\n", path.c_str());
    return false;
  }
  const auto device_ids = ScanDeviceNames(text);
  const auto parsed =
      policy::ParsePolicyText(text, device_ids, FilePostureCatalog());

  verify::Report unit;
  if (parsed.ok()) {
    std::map<DeviceId, std::string> names;
    std::vector<DeviceId> devices;
    for (const auto& [name, id] : device_ids) {
      names[id] = name;
      devices.push_back(id);
    }
    const auto space = verify::SynthesizeStateSpace(parsed.policy, names);
    verify::VerifyInput in;
    in.space = &space;
    in.policy = &parsed.policy;
    in.devices = devices;
    in.device_names = names;
    unit = verify::Verify(in);
  } else {
    for (const auto& error : parsed.errors) {
      unit.Add("P008", verify::Severity::kError, "policy file", error);
    }
  }
  Merge(unit, path, report);
  return true;
}

// ---- Built-in scenarios: the shipped example deployments, rebuilt
// without Start() (construction is cheap and runs no simulation).

struct Scenario {
  std::unique_ptr<core::Deployment> dep;
  policy::StateSpace space;
  policy::FsmPolicy policy;
  learn::AttackGraph graph;
  std::vector<DeviceId> devices;
  std::map<DeviceId, std::string> names;
};

void FillDevices(Scenario& s) {
  for (const devices::Device* d : s.dep->registry().All()) {
    s.devices.push_back(d->spec().id);
    s.names[d->spec().id] = d->spec().name;
  }
}

/// examples/smart_home.cpp's managed world: the §2.1 deployment, the
/// Figure 3/5 policy, and the attack graph over the known couplings.
Scenario BuildSmartHome() {
  Scenario s;
  s.dep = std::make_unique<core::Deployment>();
  auto* wemo = s.dep->AddSmartPlug("wemo", "oven_power",
                                   {devices::Vulnerability::kBackdoor});
  s.dep->AddCamera("cam");
  s.dep->AddFireAlarm("protect");
  auto* window = s.dep->AddWindow("window");
  s.dep->AddThermostat("nest");
  s.dep->AddLightBulb("hue");
  s.dep->AddLightSensor("lux");
  s.space = s.dep->BuildStateSpace();

  s.policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule gate;
  gate.name = "wemo-occupancy-gate";
  gate.when = policy::StatePredicate::Any();
  gate.device = wemo->id();
  gate.posture = core::ContextGatePosture(proto::IotCommand::kTurnOn,
                                          "device.cam.state",
                                          "person_detected");
  gate.priority = 10;
  s.policy.Add(gate);

  policy::PolicyRule window_guard;
  window_guard.name = "window-block-open-on-suspicion";
  window_guard.when.AndIn("ctx:protect", {"suspicious", "compromised"});
  window_guard.device = window->id();
  window_guard.posture = core::QuarantinePosture();
  window_guard.priority = 10;
  s.policy.Add(window_guard);

  policy::PolicyRule window_smoke;
  window_smoke.name = "window-quarantine-during-smoke";
  window_smoke.when = policy::StatePredicate::Eq("env:smoke", "on");
  window_smoke.device = window->id();
  window_smoke.posture = core::QuarantinePosture();
  window_smoke.priority = 5;
  s.policy.Add(window_smoke);

  // The couplings the fuzzer discovers in the learning pipeline, plus the
  // homeowner's IFTTT recipe.
  const std::set<learn::CouplingEdge> couplings = {
      {"wemo", "env:temperature"}, {"wemo", "dev:protect"}};
  s.graph = learn::BuildAttackGraph(s.dep->registry(), couplings,
                                    {{"protect", "window"}});
  FillDevices(s);
  return s;
}

/// examples/quickstart.cpp's managed world: one default-password camera
/// behind the password-proxy posture.
Scenario BuildQuickstart() {
  Scenario s;
  s.dep = std::make_unique<core::Deployment>();
  auto* cam = s.dep->AddCamera("living-room-cam",
                               {devices::Vulnerability::kDefaultPassword},
                               "admin");
  s.space = s.dep->BuildStateSpace();
  s.policy.SetDefault(core::PasswordProxyPosture(
      cam->spec().ip, "admin", "N3w-Strong-Pass", "admin", "admin"));
  s.graph = learn::BuildAttackGraph(s.dep->registry(), {}, {});
  FillDevices(s);
  return s;
}

/// Seeded-defect scenario (CI expects a non-zero exit): a backdoored plug
/// that an automation couples to the window, under an all-trust policy —
/// the multi-stage path to physical entry is wide open (X001), and every
/// degraded context falls open too (P001/P004).
Scenario BuildFixtureUncovered() {
  Scenario s;
  s.dep = std::make_unique<core::Deployment>();
  s.dep->AddSmartPlug("plug", "oven_power",
                      {devices::Vulnerability::kBackdoor});
  s.dep->AddWindow("window");
  s.space = s.dep->BuildStateSpace();
  s.policy.SetDefault(core::TrustPosture());
  s.graph = learn::BuildAttackGraph(s.dep->registry(), {},
                                    {{"plug", "window"}});
  FillDevices(s);
  return s;
}

/// Seeded-defect scenario for the OTA diff gate: same backdoored
/// plug→window automation, but the default posture only *observes*
/// (Counter → Logger, no blocking element), so whether the multi-stage
/// path is enforced hinges entirely on the crowd/OTA rule text the
/// controller splices in. With a block-action rule spliced the path is
/// blocked; weaken it to alert-only and diff-verify flags M102.
Scenario BuildFixtureOta() {
  Scenario s;
  s.dep = std::make_unique<core::Deployment>();
  s.dep->AddSmartPlug("plug", "oven_power",
                      {devices::Vulnerability::kBackdoor});
  s.dep->AddWindow("window");
  s.space = s.dep->BuildStateSpace();
  policy::Posture observe;
  observe.profile = "observe";
  observe.umbox_config = "cnt :: Counter()\nlog :: Logger()\ncnt -> log\n";
  observe.tunnel = true;
  s.policy.SetDefault(observe);
  s.graph = learn::BuildAttackGraph(s.dep->registry(), {},
                                    {{"plug", "window"}});
  FillDevices(s);
  return s;
}

bool BuildScenario(const std::string& name, Scenario& s) {
  if (name == "smart_home") {
    s = BuildSmartHome();
  } else if (name == "quickstart") {
    s = BuildQuickstart();
  } else if (name == "fixture_uncovered") {
    s = BuildFixtureUncovered();
  } else if (name == "fixture_ota") {
    s = BuildFixtureOta();
  } else {
    std::fprintf(stderr, "iotsec_lint: unknown scenario '%s'\n",
                 name.c_str());
    return false;
  }
  return true;
}

verify::ModelCheckInput ModelInputFor(const Scenario& s,
                                      std::vector<std::string> extra) {
  verify::ModelCheckInput in;
  in.space = &s.space;
  in.policy = &s.policy;
  in.attack_graph = &s.graph;
  in.devices = s.devices;
  in.device_names = s.names;
  in.extra_rule_texts = std::move(extra);
  return in;
}

struct ScenarioModes {
  bool model_check = false;
  bool diff = false;
  std::string diff_base;  // crowd/OTA rule text spliced into the base run
  std::string diff_next;  // ... and into the next run
};

bool RunScenario(const std::string& name, const ScenarioModes& modes,
                 verify::Report& report) {
  Scenario s;
  if (!BuildScenario(name, s)) return false;

  if (modes.diff) {
    // Differential mode: regressions between the two rule versions only —
    // the rule-based passes would report the same absolute findings for
    // both sides, which is exactly the noise a diff gate must not emit.
    const auto base = ModelInputFor(s, {modes.diff_base});
    const auto next = ModelInputFor(s, {modes.diff_next});
    verify::Report unit;
    verify::DiffVerify(base, next, "model diff", unit);
    unit.Finalize();
    Merge(unit, "scenario " + name, report);
    return true;
  }

  verify::VerifyInput in;
  in.space = &s.space;
  in.policy = &s.policy;
  in.devices = s.devices;
  in.device_names = s.names;
  in.attack_graph = &s.graph;
  // Scenario mode has a real deployment, so the G007 sizing pass runs
  // against its actual runtime limits.
  const core::DeploymentOptions& opt = s.dep->options();
  verify::VerifyInput::DeploymentLimits limits;
  limits.boot_queue_limit = opt.controller.boot_queue_limit;
  limits.cluster_slots = opt.cluster_hosts * opt.host_capacity;
  limits.pool_capacity = opt.admission.pool_capacity;
  in.limits = limits;
  Merge(verify::Verify(in), "scenario " + name, report);

  if (modes.model_check) {
    verify::Report unit;
    (void)verify::RunModelCheck(ModelInputFor(s, {}), "model", unit);
    unit.Finalize();
    Merge(unit, "scenario " + name, report);
  }
  return true;
}

int ListRules() {
  for (const auto& info : verify::FindingCatalogue()) {
    std::printf("%s  %-5s  %s\n", std::string(info.code).c_str(),
                verify::SeverityName(info.severity),
                std::string(info.summary).c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: iotsec_lint [--graph FILE]... [--rules FILE]...\n"
      "                   [--policy FILE]... [--rollout-plan FILE]...\n"
      "                   [--scenario smart_home|quickstart|"
      "fixture_uncovered|fixture_ota|all]\n"
      "                   [--model-check] [--diff BASE NEXT]\n"
      "                   [--baseline FILE] [--write-baseline FILE]\n"
      "                   [--json FILE] [--format text|json] [--werror]\n"
      "       iotsec_lint --list-rules\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> inputs;  // kind, value
  std::string json_path;
  std::string format = "text";
  std::string baseline_path;
  std::string write_baseline_path;
  std::string diff_base_path;
  std::string diff_next_path;
  bool werror = false;
  bool model_check = false;
  bool diff = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list-rules") {
      return ListRules();
    } else if (arg == "--graph" || arg == "--rules" || arg == "--policy" ||
        arg == "--rollout-plan" || arg == "--scenario") {
      const char* v = value();
      if (!v) return Usage();
      inputs.emplace_back(arg.substr(2), v);
    } else if (arg == "--json") {
      const char* v = value();
      if (!v) return Usage();
      json_path = v;
    } else if (arg == "--format") {
      const char* v = value();
      if (!v || (std::strcmp(v, "text") != 0 && std::strcmp(v, "json") != 0))
        return Usage();
      format = v;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--model-check") {
      model_check = true;
    } else if (arg == "--diff") {
      const char* base = value();
      const char* next = value();
      if (!base || !next) return Usage();
      diff = true;
      diff_base_path = base;
      diff_next_path = next;
    } else if (arg == "--baseline") {
      const char* v = value();
      if (!v) return Usage();
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = value();
      if (!v) return Usage();
      write_baseline_path = v;
    } else {
      return Usage();
    }
  }
  if (inputs.empty()) return Usage();

  ScenarioModes modes;
  modes.model_check = model_check;
  if (diff) {
    modes.diff = true;
    if (!ReadFile(diff_base_path, modes.diff_base)) {
      std::fprintf(stderr, "iotsec_lint: cannot read %s\n",
                   diff_base_path.c_str());
      return 2;
    }
    if (!ReadFile(diff_next_path, modes.diff_next)) {
      std::fprintf(stderr, "iotsec_lint: cannot read %s\n",
                   diff_next_path.c_str());
      return 2;
    }
  }

  verify::Report report;
  for (const auto& [kind, value] : inputs) {
    if (kind == "graph") {
      std::string text;
      if (!ReadFile(value, text)) {
        std::fprintf(stderr, "iotsec_lint: cannot read %s\n", value.c_str());
        return 2;
      }
      verify::LintGraphConfig(text, {}, "graph " + value, report);
    } else if (kind == "rules") {
      std::string text;
      if (!ReadFile(value, text)) {
        std::fprintf(stderr, "iotsec_lint: cannot read %s\n", value.c_str());
        return 2;
      }
      verify::LintRulesText(text, "rules " + value, report);
    } else if (kind == "policy") {
      if (!VerifyPolicyFile(value, report)) return 2;
    } else if (kind == "rollout-plan") {
      std::string text;
      if (!ReadFile(value, text)) {
        std::fprintf(stderr, "iotsec_lint: cannot read %s\n", value.c_str());
        return 2;
      }
      verify::LintRolloutPlan(text, "rollout plan " + value, report);
    } else if (kind == "scenario") {
      if (value == "all") {
        if (!RunScenario("smart_home", modes, report)) return 2;
        if (!RunScenario("quickstart", modes, report)) return 2;
      } else if (!RunScenario(value, modes, report)) {
        return 2;
      }
    }
  }
  report.Finalize();

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "iotsec_lint: cannot write %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    out << verify::FormatBaseline(report);
  }
  if (!baseline_path.empty()) {
    std::string text;
    if (!ReadFile(baseline_path, text)) {
      std::fprintf(stderr, "iotsec_lint: cannot read %s\n",
                   baseline_path.c_str());
      return 2;
    }
    const std::size_t suppressed =
        report.SuppressBaseline(verify::ParseBaseline(text));
    if (suppressed > 0) {
      std::fprintf(stderr, "iotsec_lint: %zu finding(s) suppressed by "
                   "baseline %s\n", suppressed, baseline_path.c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "iotsec_lint: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << report.ToJson() << '\n';
  }
  if (format == "json") {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }

  if (report.HasErrors()) return 1;
  if (werror && report.HasWarnings()) return 1;
  return 0;
}
