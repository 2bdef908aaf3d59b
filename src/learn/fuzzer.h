// Cross-device interaction fuzzer (§4.2).
//
// Crowdsourcing can cover individual devices, but implicit couplings
// (bulb -> light sensor, plug -> oven -> temperature -> smoke alarm) are
// deployment-specific. The fuzzer runs on a deeply instrumented testbed:
// it actuates devices into different states ("monkeying"), lets the
// physical dynamics settle, and diffs environment levels and other
// devices' FSM states to infer actor -> observable coupling edges. The
// discovered edges feed the policy layer and the attack-graph builder.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "devices/device.h"
#include "env/environment.h"
#include "learn/model_library.h"
#include "sim/simulator.h"

namespace iotsec::learn {

/// Ground-truth wiring of the testbed: which env variable each actuator
/// writes and each sensor reads. Used only for scoring (recall/precision),
/// never by the exploration itself.
struct WorldModel {
  std::map<std::string, std::string> actuates;  // device name -> env var
  std::map<std::string, std::string> senses;    // device name -> env var
};

struct FuzzConfig {
  int rounds = 150;
  double settle_seconds = 120.0;  // sim-time to let dynamics propagate
  std::uint64_t seed = 1;
  /// Coverage-guided picks the least-tried (device, command) pair;
  /// otherwise uniform random (bench A4 compares the two).
  bool coverage_guided = true;
  /// Restrict the command alphabet to the class's abstract model;
  /// without models the fuzzer tries every command on every device.
  bool use_models = true;
};

/// "actor device name" -> observed entity ("env:temperature" or
/// "dev:fire_alarm").
using CouplingEdge = std::pair<std::string, std::string>;

struct FuzzReport {
  std::set<CouplingEdge> discovered;
  std::set<CouplingEdge> ground_truth;
  int commands_issued = 0;
  double recall = 0;     // |discovered ∩ truth| / |truth|
  double precision = 0;  // |discovered ∩ truth| / |discovered|
  /// Cumulative distinct true edges after each round (coverage curve).
  std::vector<std::size_t> edges_over_rounds;
};

class InteractionFuzzer {
 public:
  /// `library` is copied so callers may pass a temporary
  /// (e.g. ModelLibrary::Builtin()). `advance` lets the world settle: a
  /// deployment's RunFor, or (null) `simulator`'s own.
  InteractionFuzzer(sim::Simulator& simulator, env::Environment& environment,
                    std::vector<devices::Device*> devices,
                    ModelLibrary library, WorldModel world,
                    sim::Advance advance = nullptr);

  FuzzReport Run(const FuzzConfig& config);

  /// The ground-truth coupling edges implied by the world model plus the
  /// environment's dynamics graph (public so tests can check it).
  [[nodiscard]] std::set<CouplingEdge> ComputeGroundTruth() const;

 private:
  struct Snapshot {
    std::map<std::string, int> env_levels;
    std::map<std::string, std::string> device_states;
  };

  [[nodiscard]] Snapshot Capture() const;
  void ResetWorld();

  sim::Simulator& sim_;
  env::Environment& env_;
  std::vector<devices::Device*> devices_;
  ModelLibrary library_;
  WorldModel world_;
  sim::Advance advance_;
};

}  // namespace iotsec::learn
