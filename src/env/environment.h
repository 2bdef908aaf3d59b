// Physical environment simulator.
//
// The paper's central observation is that IoT devices are coupled not only
// through the network but *through the physical world*: an oven raises the
// temperature, a bulb trips a light sensor, an open window cools a room.
// This module models that world as a set of named variables (continuous,
// with discretization thresholds, or directly discrete) advanced by
// pluggable Dynamics processes on the simulation clock.
//
// Discrete *levels* are what the policy layer sees (§3.2's E_j values:
// Temperature=High/Low, Smoke=Yes/No); continuous values underneath give
// the fuzzer (§4.2) a realistic causal process to rediscover.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace iotsec::env {

struct VarDef {
  std::string name;
  double initial = 0.0;
  /// Ascending thresholds splitting the continuous range into levels.
  /// Level i covers [thresholds[i-1], thresholds[i]). Empty = two levels
  /// split at 0.5 (boolean convention).
  std::vector<double> thresholds;
  /// Human-readable names, one per level (thresholds.size() + 1 entries).
  std::vector<std::string> level_names;

  /// Boolean variable ("off"/"on").
  static VarDef Boolean(std::string name, bool initial = false);
  /// Continuous variable with named bands.
  static VarDef Continuous(std::string name, double initial,
                           std::vector<double> thresholds,
                           std::vector<std::string> level_names);
};

/// A physical process stepped every tick: diffusion, heating, smoke, ...
class Dynamics {
 public:
  virtual ~Dynamics() = default;
  [[nodiscard]] virtual std::string Name() const = 0;
  /// Advances the process by dt seconds of simulated time.
  virtual void Step(class Environment& env, double dt_seconds) = 0;
  /// Causal edges (source variable -> target variable) this process
  /// induces. Ground truth for the fuzzer-recall experiments.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::string>>
  CausalEdges() const = 0;
};

struct LevelChange {
  std::string variable;
  int old_level = 0;
  int new_level = 0;
  SimTime at = 0;
};

class Environment {
 public:
  using Listener = std::function<void(const LevelChange&)>;

  Environment() = default;

  void Define(VarDef def);
  [[nodiscard]] bool Has(const std::string& name) const;

  /// Raw continuous value.
  [[nodiscard]] double Value(const std::string& name) const;
  /// Discrete level index derived from the thresholds.
  [[nodiscard]] int Level(const std::string& name) const;
  /// Name of the current level ("high", "on", ...).
  [[nodiscard]] const std::string& LevelName(const std::string& name) const;
  [[nodiscard]] int LevelCount(const std::string& name) const;
  /// All level names for a variable, in level order.
  [[nodiscard]] const std::vector<std::string>& LevelNames(
      const std::string& name) const;

  /// Sets the value (actuators and dynamics call this); fires listeners on
  /// a level transition. `now` also advances the environment's clock.
  void SetValue(const std::string& name, double value, SimTime now);
  /// Variant stamped with the environment's current clock (used by
  /// dynamics running inside Step()).
  void SetValue(const std::string& name, double value) {
    SetValue(name, value, now_);
  }
  /// Adds a delta (dynamics integration step).
  void AddValue(const std::string& name, double delta) {
    SetValue(name, Value(name) + delta, now_);
  }
  /// Boolean convenience.
  void SetBool(const std::string& name, bool on, SimTime now) {
    SetValue(name, on ? 1.0 : 0.0, now);
  }
  void SetBool(const std::string& name, bool on) {
    SetValue(name, on ? 1.0 : 0.0, now_);
  }
  [[nodiscard]] bool GetBool(const std::string& name) const {
    return Level(name) > 0;
  }

  void AddDynamics(std::unique_ptr<Dynamics> d);
  [[nodiscard]] const std::vector<std::unique_ptr<Dynamics>>& dynamics()
      const {
    return dynamics_;
  }

  /// All ground-truth causal edges across registered dynamics.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  GroundTruthEdges() const;

  /// Registers a level-change listener; returns an id usable to remove it.
  int Subscribe(Listener listener);
  void Unsubscribe(int id);

  /// Advances every dynamics process by dt seconds at sim-time `now`.
  void Step(SimTime now, double dt_seconds);

  /// Testbed reset: every variable back to its initial value (listeners
  /// fire for any level transitions this causes).
  void ResetToInitial(SimTime now);

  /// Hooks Step() onto the simulator at a fixed tick.
  void AttachTo(sim::Simulator& simulator,
                SimDuration tick = 500 * kMillisecond);

  /// (variable name -> level index) for every variable; the controller's
  /// view of E.
  [[nodiscard]] std::map<std::string, int> SnapshotLevels() const;

  [[nodiscard]] std::vector<std::string> VariableNames() const;

  // ---- Deployment replication --------------------------------------------
  //
  // The physical world is shared state: every device reads it, several
  // write it, and dynamics advance it — all of which would race across
  // shard workers. A deployment therefore keeps ONE owner
  // environment (dynamics, shard 0) plus a replica per device. Replicas
  // never step dynamics; their writes are captured (SetWriteCapture) and
  // routed to the owner, which applies them at the quantum barrier in a
  // canonical order; the owner's state is then copied back into each
  // replica (SyncFrom), firing replica-local listeners for level changes.
  // Devices see the world one quantum late — a fixed lag that is the same
  // at every shard count, so runs still digest-match.

  /// A detached copy of the current values — no dynamics, no listeners,
  /// no capture hook. The variable definitions are shared, not copied.
  [[nodiscard]] Environment Replicate() const;

  using WriteCapture =
      std::function<void(const std::string& name, double value, SimTime now)>;
  /// Diverts every SetValue on this instance to `hook` instead of
  /// applying it locally (nullptr restores direct writes).
  void SetWriteCapture(WriteCapture hook) { write_capture_ = std::move(hook); }

  /// Bumped on every locally applied SetValue; lets a replicator skip
  /// SyncFrom fan-out when nothing changed since the last barrier.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Copies `owner`'s values/levels over this instance's, firing local
  /// listeners (at time `now`) for any level transition.
  void SyncFrom(const Environment& owner, SimTime now);

 private:
  struct Var {
    double value = 0.0;
    int level = 0;
  };
  // The variable definitions: name -> slot in vars_ (in name order) and
  // each slot's VarDef. Shared with replicas and copied on the next
  // Define, so a replica copies values only. Define never moves a slot,
  // so a slot names the same variable in every environment sharing or
  // derived from this schema.
  struct Schema {
    std::map<std::string, std::size_t, std::less<>> slots;
    std::vector<VarDef> defs;  // [slot]
  };

  Environment(std::shared_ptr<Schema> schema, std::vector<Var> vars,
              SimTime now)
      : schema_(std::move(schema)), vars_(std::move(vars)), now_(now) {}

  [[nodiscard]] static int LevelFor(const VarDef& def, double value);
  /// Slot of `name`; throws std::out_of_range when undefined.
  [[nodiscard]] std::size_t SlotOf(const std::string& name) const;

  std::shared_ptr<Schema> schema_ = std::make_shared<Schema>();
  std::vector<Var> vars_;  // [slot]
  std::vector<std::unique_ptr<Dynamics>> dynamics_;
  std::map<int, Listener> listeners_;
  int next_listener_id_ = 1;
  SimTime now_ = 0;
  std::uint64_t version_ = 0;
  WriteCapture write_capture_;
};

}  // namespace iotsec::env
