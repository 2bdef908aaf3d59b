// Bounded symbolic model checking over the whole-deployment product.
//
// The rule-based passes (P/G/R/X) each look at one layer; this explorer
// searches the *product* of all of them: policy FSM decisions × free
// context/environment transitions × attack-graph exploit hops × the
// guard strength of whatever µmbox posture the policy puts in front of
// each device. It exhaustively enumerates reachable product states
// (breadth-first, so the first path to a bad state is a minimal one) and
// asks, per protected goal fact: can the attacker reach it while every
// exploit hop it fires is unguarded at the moment of firing?
//
// Two guard semantics run back to back:
//   * strict  — only a chain that can actually drop packets counts
//               (blocking element, or a SignatureMatcher whose effective
//               ruleset carries a block-action rule);
//   * lenient — any scanning/blocking chain counts (the X0xx coverage
//               semantics: detection is assumed to trigger response).
// A goal reachable under lenient semantics is unguarded outright (M001,
// or M002 when a fired hop's guard evaporated after a context
// transition); reachable only under strict semantics means it is cut by
// alert-only scanning — detected but never blocked (M003); unreachable
// under both is a proof of enforcement within the explored bound (M004).
//
// Exploit hops replay the deployment's detection model: a fired exploit
// flips its device's ctx: dimension to "compromised", so quarantine
// rules fire mid-trace and the checker sees guards *appear* as well as
// evaporate. Everything is deterministic — transition enumeration order,
// BFS tie-breaks, trace text — so repeated runs are byte-identical and
// results memoize by input hash (ModelCheckCache).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dataplane/element.h"
#include "learn/attack_graph.h"
#include "policy/fsm_policy.h"
#include "verify/report.h"

namespace iotsec::verify {

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

/// Memoized posture guard-strength analysis. Refines PostureCache's
/// boolean "enforces anything" with rule-awareness: a SignatureMatcher is
/// only as strong as its loaded ruleset (block-action rule → blocking,
/// alert-only → scan-only, none → nothing). It analyses the chain the
/// controller launches: the posture's config with the OTA/crowd rule
/// texts spliced in by dataplane::SpliceCrowdMatcher, the same function
/// IoTSecController::EffectiveConfig calls.
class GuardEvaluator {
 public:
  GuardEvaluator(const dataplane::ElementContext& ctx,
                 std::vector<std::string> extra_rule_texts);

  [[nodiscard]] GuardStrength Strength(const policy::Posture& posture);

 private:
  [[nodiscard]] GuardStrength AnalyzeConfig(const std::string& config);

  dataplane::ElementContext ctx_;
  std::vector<std::string> extra_rule_texts_;
  std::map<std::string, GuardStrength> memo_;  // by posture config text
};

struct ModelCheckConfig {
  /// Exploration budget: distinct product states per pass.
  std::size_t max_states = 50000;
  /// Maximum counterexample length (BFS depth).
  std::size_t max_depth = 24;

  bool operator==(const ModelCheckConfig&) const = default;
};

struct ModelCheckInput {
  const policy::StateSpace* space = nullptr;
  const policy::FsmPolicy* policy = nullptr;
  const learn::AttackGraph* attack_graph = nullptr;
  std::vector<DeviceId> devices;
  std::map<DeviceId, std::string> device_names;
  /// Goal facts to prove cut; empty = attack_graph->ReachableGoals().
  std::vector<std::string> goals;
  /// OTA/crowd rule texts spliced into every tunneled non-empty chain —
  /// the knob differential verification turns (base vs next version).
  std::vector<std::string> extra_rule_texts;
  dataplane::ElementContext element_ctx;
  ModelCheckConfig config;
};

/// One step of a counterexample trace.
struct TraceStep {
  enum class Kind : std::uint8_t {
    kContext,  // a free dimension transition (env var / device FSM state)
    kAttack,   // an exploit hop fired
  };
  Kind kind = Kind::kAttack;
  // kContext: `dim` moved `from` -> `to`.
  std::string dim;
  std::string from;
  std::string to;
  // kAttack: `exploit` fired against `device` ("" = environmental step).
  std::string exploit;
  std::string device;
  /// What the policy did in response: rule wins and posture changes for
  /// a context step, the firing device's (un)guarded posture and ctx flip
  /// for an attack step.
  std::string note;

  [[nodiscard]] std::string ToString() const;
  bool operator==(const TraceStep&) const = default;
};

/// A minimal ordered path to a bad state (BFS discovery order).
struct Counterexample {
  std::vector<TraceStep> steps;

  [[nodiscard]] bool empty() const { return steps.empty(); }
  /// "1) ... 2) ..." — single line, deterministic, emitter-safe.
  [[nodiscard]] std::string ToString() const;
  bool operator==(const Counterexample&) const = default;
};

struct GoalVerdict {
  enum class Class : std::uint8_t {
    kUnguarded,  // reachable even when scanning counts as a guard
    kAlertOnly,  // cut by scanning, but blocking guards alone don't stop it
    kBlocked,    // proven cut by blocking enforcement within the bound
    kUnknown,    // exploration budget exhausted before a verdict
  };
  std::string goal;
  Class cls = Class::kUnknown;
  /// kUnguarded: the lenient-mode trace (beats every guard). kAlertOnly:
  /// the strict-mode trace (the path blocking alone misses). Else empty.
  Counterexample trace;
  /// kUnguarded only: some fired hop's device was guarded in the initial
  /// state — the path exists because a context transition dissolved the
  /// guard (reported as M002 instead of M001).
  bool guard_evaporated = false;
};

struct ModelCheckResult {
  /// One verdict per goal, in goal order.
  std::vector<GoalVerdict> verdicts;
  /// Distinct product states explored, summed over both passes.
  std::size_t states_explored = 0;
  /// Transitions generated, summed over both passes.
  std::size_t transitions = 0;
  /// True when either pass hit its budget before settling every goal.
  bool exhausted = false;
};

/// Runs the explorer. Deterministic: identical inputs yield identical
/// results (and identical findings/text downstream).
[[nodiscard]] ModelCheckResult ModelCheck(const ModelCheckInput& in);

/// Content hash of everything ModelCheck reads from `in` — state space,
/// policy, attack graph, devices, goals, extra rules, budget. Two inputs
/// with equal keys produce equal results, which is what makes the memo
/// cache sound.
[[nodiscard]] std::uint64_t ModelCheckKey(const ModelCheckInput& in);

/// Memo cache keyed by ModelCheckKey. In-process it makes repeated
/// checks (the CLI's N inputs, diff-verify's shared base) free; the
/// Serialize/Deserialize pair persists it across CI runs
/// (`iotsec_lint --mc-cache <file>`). Single-threaded by design — the
/// verifier runs on the control plane, not the packet path.
class ModelCheckCache {
 public:
  [[nodiscard]] std::shared_ptr<const ModelCheckResult> Lookup(
      std::uint64_t key);
  void Insert(std::uint64_t key,
              std::shared_ptr<const ModelCheckResult> result);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Deterministic text serialization of every entry.
  [[nodiscard]] std::string Serialize() const;
  /// Replaces the contents from Serialize() output. False (and empty
  /// cache) on malformed/mismatched-version input — a stale or corrupt
  /// cache file degrades to a cold cache, never to wrong results.
  bool Deserialize(const std::string& text);

 private:
  std::map<std::uint64_t, std::shared_ptr<const ModelCheckResult>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// ModelCheck through the cache (nullptr cache = always run).
[[nodiscard]] std::shared_ptr<const ModelCheckResult> CachedModelCheck(
    const ModelCheckInput& in, ModelCheckCache* cache);

/// Renders a result as M001–M004 findings labelled `origin`.
void ReportModelCheck(const ModelCheckResult& result,
                      const std::string& origin, Report& report);

/// CachedModelCheck + ReportModelCheck in one call — the CLI entry point.
std::shared_ptr<const ModelCheckResult> RunModelCheck(
    const ModelCheckInput& in, const std::string& origin, Report& report,
    ModelCheckCache* cache = nullptr);

}  // namespace iotsec::verify
