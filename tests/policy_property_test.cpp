// Property tests: the symbolic policy machinery (predicate overlap,
// subsumption, distinct-posture counting) cross-checked against
// brute-force enumeration on randomly generated small state spaces.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "policy/analysis.h"
#include "verify/verifier.h"

namespace iotsec::policy {
namespace {

// "v3"-style names, built by appending: GCC 12 at -O3 misreports
// `"v" + std::to_string(n)` as an overlapping copy (-Wrestrict).
std::string Numbered(char prefix, std::uint64_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

struct RandomSpace {
  StateSpace space;
  std::vector<std::string> dim_names;

  RandomSpace(Rng& rng, std::size_t max_dims = 4, std::size_t max_values = 3) {
    const std::size_t n_dims = 1 + rng.NextBelow(max_dims);
    for (std::size_t d = 0; d < n_dims; ++d) {
      Dimension dim;
      dim.name = "d" + std::to_string(d);
      dim.kind = DimensionKind::kEnvVar;
      const std::size_t n_values = 2 + rng.NextBelow(max_values - 1);
      for (std::size_t v = 0; v < n_values; ++v) {
        dim.values.push_back(Numbered('v', v));
      }
      dim_names.push_back(dim.name);
      space.AddDimension(std::move(dim));
    }
  }

  /// Enumerates every state, invoking fn on each.
  void ForEachState(const std::function<void(const SystemState&)>& fn) const {
    const std::size_t dims = space.DimensionCount();
    std::vector<std::size_t> counter(dims, 0);
    SystemState state = space.InitialState();
    for (;;) {
      for (std::size_t i = 0; i < dims; ++i) {
        state.values[i] = static_cast<int>(counter[i]);
      }
      fn(state);
      std::size_t pos = 0;
      while (pos < dims) {
        if (++counter[pos] < space.Dim(pos).values.size()) break;
        counter[pos] = 0;
        ++pos;
      }
      if (pos == dims) break;
    }
  }

  StatePredicate RandomPredicate(Rng& rng) const {
    StatePredicate p;
    for (const auto& name : dim_names) {
      if (!rng.NextBool(0.5)) continue;  // leave some dims unconstrained
      const auto idx = space.IndexOf(name);
      const auto& values = space.Dim(*idx).values;
      std::set<std::string> chosen;
      for (const auto& v : values) {
        if (rng.NextBool(0.5)) chosen.insert(v);
      }
      if (chosen.empty()) chosen.insert(values[rng.NextBelow(values.size())]);
      p.AndIn(name, std::move(chosen));
    }
    return p;
  }
};

class PredicatePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PredicatePropertyTest, OverlapMatchesEnumeration) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    RandomSpace rs(rng);
    const auto a = rs.RandomPredicate(rng);
    const auto b = rs.RandomPredicate(rng);
    bool enumerated_overlap = false;
    rs.ForEachState([&](const SystemState& s) {
      if (a.Matches(rs.space, s) && b.Matches(rs.space, s)) {
        enumerated_overlap = true;
      }
    });
    EXPECT_EQ(a.Overlaps(b, rs.space), enumerated_overlap)
        << "a=" << a.ToString() << " b=" << b.ToString();
    // Overlap is symmetric.
    EXPECT_EQ(a.Overlaps(b, rs.space), b.Overlaps(a, rs.space));
  }
}

TEST_P(PredicatePropertyTest, SubsumptionMatchesEnumeration) {
  Rng rng(GetParam() ^ 0xfeed);
  for (int round = 0; round < 30; ++round) {
    RandomSpace rs(rng);
    const auto a = rs.RandomPredicate(rng);
    const auto b = rs.RandomPredicate(rng);
    bool enumerated_subsumed = true;  // a ⊆ b?
    rs.ForEachState([&](const SystemState& s) {
      if (a.Matches(rs.space, s) && !b.Matches(rs.space, s)) {
        enumerated_subsumed = false;
      }
    });
    // The symbolic check is sound (never claims subsumption that does
    // not hold); it may be incomplete only when `a` is unsatisfiable,
    // which RandomPredicate never produces.
    EXPECT_EQ(a.IsSubsumedBy(b, rs.space), enumerated_subsumed)
        << "a=" << a.ToString() << " b=" << b.ToString();
    // Reflexivity.
    EXPECT_TRUE(a.IsSubsumedBy(a, rs.space));
  }
}

TEST_P(PredicatePropertyTest, DistinctPosturesMatchEnumeration) {
  Rng rng(GetParam() ^ 0xabcd);
  for (int round = 0; round < 20; ++round) {
    RandomSpace rs(rng);
    FsmPolicy policy;
    Posture def;
    def.profile = "default";
    policy.SetDefault(def);
    const DeviceId device = 1;
    const int n_rules = 1 + static_cast<int>(rng.NextBelow(4));
    for (int r = 0; r < n_rules; ++r) {
      PolicyRule rule;
      rule.name = Numbered('r', r);
      rule.when = rs.RandomPredicate(rng);
      rule.device = device;
      rule.posture.profile = Numbered('p', r);
      rule.priority = static_cast<int>(rng.NextBelow(3));
      policy.Add(std::move(rule));
    }

    // Brute-force distinct postures over every state.
    std::set<std::string> enumerated;
    rs.ForEachState([&](const SystemState& s) {
      enumerated.insert(policy.Evaluate(rs.space, s, device).profile);
    });

    const auto analysis = AnalyzePolicy(policy, rs.space, {device});
    EXPECT_EQ(analysis.distinct_postures.at(device), enumerated.size())
        << "round " << round;
  }
}

TEST_P(PredicatePropertyTest, ShadowedRulesNeverWin) {
  Rng rng(GetParam() ^ 0x5151);
  for (int round = 0; round < 20; ++round) {
    RandomSpace rs(rng);
    FsmPolicy policy;
    const DeviceId device = 1;
    for (int r = 0; r < 4; ++r) {
      PolicyRule rule;
      rule.name = "r" + std::to_string(r);
      rule.when = rs.RandomPredicate(rng);
      rule.device = device;
      rule.posture.profile = "p" + std::to_string(r);
      rule.priority = r;  // strictly increasing, no ties
      policy.Add(std::move(rule));
    }
    const auto analysis = AnalyzePolicy(policy, rs.space, {device});

    // Property: a rule flagged as shadowed never decides any state.
    for (const auto shadowed_idx : analysis.shadowed_rules) {
      const auto& shadowed = policy.rules()[shadowed_idx];
      rs.ForEachState([&](const SystemState& s) {
        const auto& winner = policy.Evaluate(rs.space, s, device);
        if (shadowed.when.Matches(rs.space, s)) {
          EXPECT_NE(winner.profile, shadowed.posture.profile)
              << "shadowed rule " << shadowed.name << " won state "
              << rs.space.Describe(s);
        }
      });
    }
  }
}

TEST_P(PredicatePropertyTest, StaticVerifierNeverCrashesAndIsDeterministic) {
  // The verifier must digest any policy the generator produces — including
  // conflicting, shadowed, and never-matching rules — without crashing,
  // and must report the same findings on every run.
  Rng rng(GetParam() ^ 0x7e1f);
  for (int round = 0; round < 20; ++round) {
    RandomSpace rs(rng);
    FsmPolicy policy;
    Posture def;
    def.profile = "default";
    policy.SetDefault(def);
    const DeviceId device = 1;
    const int n_rules = static_cast<int>(rng.NextBelow(5));
    for (int r = 0; r < n_rules; ++r) {
      PolicyRule rule;
      rule.name = "r" + std::to_string(r);
      rule.when = rs.RandomPredicate(rng);
      // Occasionally constrain a dimension the space does not have, the
      // P006 shape.
      if (rng.NextBool(0.2)) rule.when.And("ctx:ghost", "suspicious");
      rule.device = device;
      rule.posture.profile = "p" + std::to_string(r);
      rule.posture.tunnel = rng.NextBool(0.5);
      rule.priority = static_cast<int>(rng.NextBelow(3));
      policy.Add(std::move(rule));
    }

    verify::VerifyInput in;
    in.space = &rs.space;
    in.policy = &policy;
    in.devices = {device};
    in.device_names = {{device, "dev"}};
    const auto first = verify::Verify(in);
    const auto second = verify::Verify(in);
    ASSERT_EQ(first.findings().size(), second.findings().size())
        << "round " << round;
    for (std::size_t i = 0; i < first.findings().size(); ++i) {
      EXPECT_TRUE(first.findings()[i] == second.findings()[i])
          << "round " << round << " finding " << i;
    }
  }
}

/// The pre-index evaluator: scan every rule, keep the first match with
/// the highest priority.
std::optional<std::size_t> LinearWinningRule(const FsmPolicy& policy,
                                             const StateSpace& space,
                                             const SystemState& state,
                                             DeviceId device) {
  std::optional<std::size_t> best;
  const auto& rules = policy.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].device != device) continue;
    if (!rules[i].when.Matches(space, state)) continue;
    if (!best || rules[i].priority > rules[*best].priority) best = i;
  }
  return best;
}

/// The pre-index RelevantDims: every rule's constrained dims.
std::set<std::string> LinearRelevantDims(const FsmPolicy& policy,
                                         DeviceId device) {
  std::set<std::string> dims;
  for (const auto& rule : policy.rules()) {
    if (rule.device != device) continue;
    for (const auto& [dim, _] : rule.when.constraints) dims.insert(dim);
  }
  return dims;
}

TEST_P(PredicatePropertyTest, IndexedEvaluationMatchesLinearScan) {
  // Random multi-device policies with priority ties, rules for devices
  // nobody asks about and for dimensions the space lacks, checked after
  // every few additions — the index must track rules added after the
  // first evaluation.
  Rng rng(GetParam() ^ 0x1de);
  const std::vector<DeviceId> devices = {0, 1, 2, 3, 77, kInvalidDevice};
  for (int round = 0; round < 20; ++round) {
    RandomSpace rs(rng);
    FsmPolicy policy;
    Posture def;
    def.profile = "default";
    policy.SetDefault(def);
    const int n_rules = static_cast<int>(rng.NextBelow(12));
    for (int r = 0; r <= n_rules; ++r) {
      if (r > 0) {
        PolicyRule rule;
        rule.name = Numbered('r', static_cast<std::uint64_t>(r));
        rule.when = rs.RandomPredicate(rng);
        if (rng.NextBool(0.15)) rule.when.And("ctx:ghost", "suspicious");
        rule.device = devices[rng.NextBelow(devices.size())];
        rule.posture.profile = Numbered('p', static_cast<std::uint64_t>(r));
        rule.priority = static_cast<int>(rng.NextBelow(3));  // many ties
        policy.Add(std::move(rule));
      }
      if (rng.NextBool(0.6) && r != n_rules) continue;
      for (const DeviceId device : devices) {
        rs.ForEachState([&](const SystemState& s) {
          const auto expected = LinearWinningRule(policy, rs.space, s, device);
          ASSERT_EQ(policy.WinningRule(rs.space, s, device), expected)
              << "round " << round << " device " << device << " state "
              << rs.space.Describe(s);
          const Posture& want =
              expected ? policy.rules()[*expected].posture : def;
          ASSERT_EQ(policy.Evaluate(rs.space, s, device), want);
        });
        EXPECT_EQ(policy.RelevantDims(device),
                  LinearRelevantDims(policy, device))
            << "round " << round << " device " << device;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicatePropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 9999));

}  // namespace
}  // namespace iotsec::policy
