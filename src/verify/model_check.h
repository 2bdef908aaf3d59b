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
// BFS tie-breaks, trace text — so repeated runs are byte-identical.
//
// Guard strength comes from verify::GuardEvaluator (graph_lint.h), the
// same analysis the P and X passes use, memoized per run by exact config
// text; nothing is cached across runs. The shipped scenarios explore a
// dozen states or fewer, so a check costs milliseconds.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataplane/element.h"
#include "learn/attack_graph.h"
#include "policy/fsm_policy.h"
#include "verify/graph_lint.h"
#include "verify/report.h"

namespace iotsec::verify {

struct ModelCheckConfig {
  /// Maximum counterexample length (BFS depth).
  std::size_t max_depth = 24;
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

/// Renders a result as M001–M004 findings labelled `origin`.
void ReportModelCheck(const ModelCheckResult& result,
                      const std::string& origin, Report& report);

/// ModelCheck + ReportModelCheck in one call — the CLI entry point.
ModelCheckResult RunModelCheck(const ModelCheckInput& in,
                               const std::string& origin, Report& report);

}  // namespace iotsec::verify
