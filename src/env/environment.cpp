#include "env/environment.h"

#include <stdexcept>

namespace iotsec::env {

VarDef VarDef::Boolean(std::string name, bool initial) {
  VarDef def;
  def.name = std::move(name);
  def.initial = initial ? 1.0 : 0.0;
  def.thresholds = {0.5};
  def.level_names = {"off", "on"};
  return def;
}

VarDef VarDef::Continuous(std::string name, double initial,
                          std::vector<double> thresholds,
                          std::vector<std::string> level_names) {
  VarDef def;
  def.name = std::move(name);
  def.initial = initial;
  def.thresholds = std::move(thresholds);
  def.level_names = std::move(level_names);
  if (def.level_names.size() != def.thresholds.size() + 1) {
    throw std::invalid_argument("level_names must be thresholds+1 for " +
                                def.name);
  }
  return def;
}

void Environment::Define(VarDef def) {
  if (def.thresholds.empty()) {
    def.thresholds = {0.5};
    if (def.level_names.empty()) def.level_names = {"off", "on"};
  }
  if (def.level_names.size() != def.thresholds.size() + 1) {
    throw std::invalid_argument("level_names must be thresholds+1 for " +
                                def.name);
  }
  if (schema_.use_count() > 1) schema_ = std::make_shared<Schema>(*schema_);
  const Var var{def.initial, LevelFor(def, def.initial)};
  const auto [it, added] = schema_->slots.try_emplace(def.name, vars_.size());
  if (added) {
    schema_->defs.push_back(std::move(def));
    vars_.push_back(var);
  } else {
    schema_->defs[it->second] = std::move(def);
    vars_[it->second] = var;
  }
}

bool Environment::Has(const std::string& name) const {
  return schema_->slots.count(name) > 0;
}

std::size_t Environment::SlotOf(const std::string& name) const {
  const auto it = schema_->slots.find(name);
  if (it == schema_->slots.end()) {
    throw std::out_of_range("undefined environment variable: " + name);
  }
  return it->second;
}

double Environment::Value(const std::string& name) const {
  return vars_[SlotOf(name)].value;
}

int Environment::Level(const std::string& name) const {
  return vars_[SlotOf(name)].level;
}

const std::string& Environment::LevelName(const std::string& name) const {
  const std::size_t slot = SlotOf(name);
  return schema_->defs[slot]
      .level_names[static_cast<std::size_t>(vars_[slot].level)];
}

int Environment::LevelCount(const std::string& name) const {
  return static_cast<int>(LevelNames(name).size());
}

const std::vector<std::string>& Environment::LevelNames(
    const std::string& name) const {
  return schema_->defs[SlotOf(name)].level_names;
}

int Environment::LevelFor(const VarDef& def, double value) {
  int level = 0;
  for (double t : def.thresholds) {
    if (value >= t) ++level;
    else break;
  }
  return level;
}

void Environment::SetValue(const std::string& name, double value,
                           SimTime now) {
  const std::size_t slot = SlotOf(name);
  if (write_capture_) {
    // Replica in a sharded deployment: the write belongs to the owner
    // environment and is applied there at the next quantum barrier.
    write_capture_(name, value, now);
    return;
  }
  if (now > now_) now_ = now;
  Var& var = vars_[slot];
  var.value = value;
  ++version_;
  const int new_level = LevelFor(schema_->defs[slot], value);
  if (new_level == var.level) return;
  const LevelChange change{name, var.level, new_level, now};
  var.level = new_level;
  // Copy listeners: a listener may subscribe/unsubscribe reentrantly.
  auto listeners = listeners_;
  for (auto& [id, fn] : listeners) fn(change);
}

void Environment::AddDynamics(std::unique_ptr<Dynamics> d) {
  dynamics_.push_back(std::move(d));
}

std::vector<std::pair<std::string, std::string>>
Environment::GroundTruthEdges() const {
  std::vector<std::pair<std::string, std::string>> edges;
  for (const auto& d : dynamics_) {
    for (auto& e : d->CausalEdges()) edges.push_back(std::move(e));
  }
  return edges;
}

int Environment::Subscribe(Listener listener) {
  const int id = next_listener_id_++;
  listeners_[id] = std::move(listener);
  return id;
}

void Environment::Unsubscribe(int id) { listeners_.erase(id); }

void Environment::Step(SimTime now, double dt_seconds) {
  if (now > now_) now_ = now;
  for (const auto& d : dynamics_) d->Step(*this, dt_seconds);
}

void Environment::ResetToInitial(SimTime now) {
  for (const auto& [name, slot] : schema_->slots) {
    SetValue(name, schema_->defs[slot].initial, now);
  }
}

void Environment::AttachTo(sim::Simulator& simulator, SimDuration tick) {
  const double dt = static_cast<double>(tick) / kSecond;
  simulator.Every(tick, [this, &simulator, dt] {
    Step(simulator.Now(), dt);
  });
}

std::map<std::string, int> Environment::SnapshotLevels() const {
  std::map<std::string, int> out;
  for (const auto& [name, slot] : schema_->slots) {
    out.emplace_hint(out.end(), name, vars_[slot].level);
  }
  return out;
}

std::vector<std::string> Environment::VariableNames() const {
  std::vector<std::string> out;
  out.reserve(vars_.size());
  for (const auto& [name, slot] : schema_->slots) out.push_back(name);
  return out;
}

Environment Environment::Replicate() const {
  return Environment(schema_, vars_, now_);
}

void Environment::SyncFrom(const Environment& owner, SimTime now) {
  if (now > now_) now_ = now;
  // Name order, so the order replica listeners observe multi-variable
  // changes is the same everywhere. A replica normally shares its
  // owner's schema; if the owner has since defined more variables, the
  // replica's slots still name the same variables there.
  for (const auto& [name, slot] : schema_->slots) {
    const Var& theirs = owner.vars_[slot];
    Var& mine = vars_[slot];
    mine.value = theirs.value;
    if (theirs.level == mine.level) continue;
    const LevelChange change{name, mine.level, theirs.level, now};
    mine.level = theirs.level;
    auto listeners = listeners_;
    for (auto& [id, fn] : listeners) fn(change);
  }
}

}  // namespace iotsec::env
