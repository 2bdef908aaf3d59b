// Tests for the process-wide compiled-ruleset cache: identical rule lists
// share one compile, differing lists do not, hot replacement leaves
// in-flight users on their old compile. The text front: texts with equal
// rules share a compile, errors are never cached, aliases die with their
// compile, and concurrent lookups agree.
#include <gtest/gtest.h>

#include <thread>

#include "net/address.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "proto/transport.h"
#include "sig/compiled_ruleset.h"
#include "sig/corpus.h"
#include "sig/ruleset.h"

namespace iotsec::sig {
namespace {

using net::Ipv4Address;
using net::MacAddress;

class SigCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CompiledRulesetCache::Instance().Clear();
    const obs::Metrics& m = obs::M();
    for (obs::Counter* c : {m.sig_compiles, m.sig_cache_hits,
                            m.sig_cache_misses, m.sig_cache_expired}) {
      c->Reset();
    }
  }
};

std::string OneRuleText(std::string_view content) {
  return "alert tcp any any -> any any (sid:900; content:\"" +
         std::string(content) + "\"; )\n";
}

std::vector<Rule> SomeRules(std::string_view content) {
  auto rules = ParseRules(OneRuleText(content));
  EXPECT_EQ(rules.size(), 1u);
  return rules;
}

proto::ParsedFrame MustParse(const Bytes& wire) {
  auto f = proto::ParseFrame(wire);
  EXPECT_TRUE(f.has_value());
  return *f;
}

Bytes TcpPayloadFrame(std::string_view payload) {
  return proto::BuildTcpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2),
      proto::TcpHeader{.src_port = 1111, .dst_port = 80,
                       .flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck},
      ToBytes(payload));
}

TEST_F(SigCacheTest, IdenticalRuleListsShareOneCompile) {
  constexpr std::size_t kUmboxes = 8;
  std::vector<RuleSet> fleet(kUmboxes);
  for (auto& rs : fleet) {
    rs.Reset(BuiltinRules());
    rs.EnsureCompiled();
  }
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_misses->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), kUmboxes - 1);
  for (std::size_t i = 1; i < kUmboxes; ++i) {
    EXPECT_EQ(fleet[i].compiled().get(), fleet[0].compiled().get());
  }
}

TEST_F(SigCacheTest, DifferingRuleListsDoNotShare) {
  RuleSet a(SomeRules("alpha"));
  RuleSet b(SomeRules("beta"));
  a.EnsureCompiled();
  b.EnsureCompiled();
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 0u);
  EXPECT_NE(a.compiled().get(), b.compiled().get());
  EXPECT_EQ(CompiledRulesetCache::Instance().LiveEntryCount(), 2u);
}

TEST_F(SigCacheTest, ReplacementLeavesInFlightEvaluationsIntact) {
  RuleSet rs(SomeRules("needle"));
  const Bytes hit_wire = TcpPayloadFrame("xx needle xx");
  EXPECT_TRUE(rs.Evaluate(MustParse(hit_wire)).Matched());

  // An in-flight evaluator holds the old compile while a crowd push swaps
  // the RuleSet to a new ruleset.
  std::shared_ptr<const CompiledRuleset> old_compile = rs.compiled();
  rs.Reset(SomeRules("other"));
  EXPECT_TRUE(rs.CompilePending());
  EXPECT_FALSE(rs.Evaluate(MustParse(hit_wire)).Matched());  // new rules
  EXPECT_FALSE(rs.CompilePending());

  // The old compile still works, unchanged, for whoever kept it.
  EvalScratch scratch;
  EXPECT_TRUE(old_compile->Evaluate(MustParse(hit_wire), scratch).Matched());
  EXPECT_NE(old_compile.get(), rs.compiled().get());
}

TEST_F(SigCacheTest, ExpiredEntriesRecompile) {
  {
    RuleSet rs(SomeRules("gone"));
    rs.EnsureCompiled();
    EXPECT_EQ(CompiledRulesetCache::Instance().LiveEntryCount(), 1u);
  }
  // Last user gone: the weak entry is dead and a fresh request recompiles.
  RuleSet again(SomeRules("gone"));
  again.EnsureCompiled();
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_expired->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 0u);
}

TEST_F(SigCacheTest, DeferredAndBatchedAddCompileOnce) {
  auto rules = ParseRules(
      "alert tcp any any -> any any (sid:1; content:\"one\"; )\n"
      "alert tcp any any -> any any (sid:2; content:\"two\"; )\n"
      "alert tcp any any -> any any (sid:3; content:\"three\"; )\n");
  ASSERT_EQ(rules.size(), 3u);

  RuleSet rs;
  for (const auto& rule : rules) rs.Add(rule);  // three single Adds
  EXPECT_TRUE(rs.CompilePending());
  EXPECT_EQ(obs::M().sig_compiles->Value(), 0u);  // nothing compiled yet

  const Bytes wire = TcpPayloadFrame("one and two and three");
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 3u);
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);  // one compile for the batch

  RuleSet batched;
  batched.Add(rules);  // vector overload
  batched.EnsureCompiled();
  EXPECT_EQ(batched.RuleCount(), 3u);
  // Same rule list -> served from cache, still one compile total.
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 1u);
}

TEST_F(SigCacheTest, ScratchRebindsWhenAllocatorReusesCompileAddress) {
  // Regression: EvalScratch used to bind to the compile's raw address.
  // RuleSet::Reset frees the old compile before EnsureCompiled allocates
  // the next one, so the allocator can place the successor at the same
  // address (same size class); a stale address binding then passed and
  // left the epoch/content-hit arrays sized for the *old* ruleset —
  // out-of-bounds writes when the new ruleset is larger. Binding is now
  // by process-unique compile id, so this holds regardless of where the
  // allocator puts the successor; the ASan job proves no OOB.
  RuleSet rs(SomeRules("tiny"));
  const Bytes wire = TcpPayloadFrame("tiny and one and two and three");
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 1u);  // binds

  // Grow the ruleset many times over; each Reset frees the previous
  // compile first, inviting address reuse.
  auto grown = ParseRules(
      "alert tcp any any -> any any (sid:1; content:\"one\"; )\n"
      "alert tcp any any -> any any (sid:2; content:\"two\"; )\n"
      "alert tcp any any -> any any (sid:3; content:\"three\"; )\n");
  rs.Reset(grown);
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 3u);

  // And back down: a smaller successor must not inherit oversized arrays
  // with stale marks (silently wrong verdicts).
  rs.Reset(SomeRules("tiny"));
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 1u);
}

TEST_F(SigCacheTest, CompileIdsAreUniquePerCompile) {
  // Identical rule text, separate compiles (cache cleared in between):
  // distinct identities, so a scratch bound to one never trusts the other.
  CompiledRuleset a(SomeRules("same"));
  CompiledRuleset b(SomeRules("same"));
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), 0u);  // 0 is the unbound-scratch sentinel
  EXPECT_NE(b.id(), 0u);
}

TEST_F(SigCacheTest, PeriodicSweepPrunesBucketsNeverReprobed) {
  auto& cache = CompiledRulesetCache::Instance();
  // Churn: distinct rulesets acquired and immediately dropped. Their
  // buckets are never probed again, so only the periodic sweep can free
  // the dead entries (and their canonical rule text).
  constexpr std::size_t kChurned = 8;
  for (std::size_t i = 0; i < kChurned; ++i) {
    auto compiled = cache.GetOrCompile(SomeRules("churn" + std::to_string(i)));
  }
  EXPECT_EQ(cache.LiveEntryCount(), 0u);
  EXPECT_EQ(cache.TotalEntryCount(), kChurned);  // dead but retained

  // Unrelated traffic on a different key reaches the sweep interval; the
  // dead buckets are reclaimed even though nothing ever probes them.
  auto live = cache.GetOrCompile(SomeRules("live"));
  for (std::uint64_t i = 0; i < CompiledRulesetCache::kSweepInterval; ++i) {
    EXPECT_EQ(cache.GetOrCompile(SomeRules("live")).get(), live.get());
  }
  EXPECT_EQ(cache.TotalEntryCount(), 1u);  // only the live entry survives
  EXPECT_EQ(cache.LiveEntryCount(), 1u);
}

TEST_F(SigCacheTest, CanonicallyEqualTextsShareOneCompile) {
  // A crowd splice strips its rule texts' quotes; the rollout receiver
  // parsed them quoted. Both texts must land on one compile.
  auto& cache = CompiledRulesetCache::Instance();
  const std::string quoted =
      "alert tcp any any -> any any (msg:\"spliced\"; sid:901; "
      "content:\"needle\"; )\n";
  std::string stripped = quoted;
  std::erase(stripped, '"');
  ASSERT_NE(quoted, stripped);

  std::string error;
  const auto a = cache.GetOrCompileText(quoted, &error);
  const auto b = cache.GetOrCompileText(stripped, &error);
  ASSERT_NE(a, nullptr) << error;
  ASSERT_NE(b, nullptr) << error;
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);
  EXPECT_EQ(cache.TotalEntryCount(), 1u);
  EXPECT_EQ(cache.AliasCount(), 2u);
  // The second text parsed and hit the canonical entry; a repeat of
  // either is a text hit.
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 1u);
  EXPECT_EQ(cache.GetOrCompileText(quoted, &error).get(), a.get());
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_misses->Value(), 1u);
}

TEST_F(SigCacheTest, MalformedTextIsNeverCached) {
  auto& cache = CompiledRulesetCache::Instance();
  const auto live = cache.GetOrCompileText(OneRuleText("fine"), nullptr);
  ASSERT_NE(live, nullptr);
  const std::size_t entries = cache.TotalEntryCount();
  const std::size_t aliases = cache.AliasCount();
  const std::string bad =
      OneRuleText("fine") + "alert tcp any any -> (sid:902; oops\n";

  std::string first;
  std::string second;
  EXPECT_EQ(cache.GetOrCompileText(bad, &first), nullptr);
  EXPECT_EQ(cache.GetOrCompileText(bad, &second), nullptr);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "the second lookup must parse and fail again";
  EXPECT_NE(first.find("line 2"), std::string::npos) << first;
  EXPECT_EQ(cache.TotalEntryCount(), entries);
  EXPECT_EQ(cache.AliasCount(), aliases);
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);
}

TEST_F(SigCacheTest, DroppedCompileRecompilesOnNextTextLookup) {
  // The alias is weak: once the last holder (a destroyed deployment's
  // µmboxes) drops the compile, the next launch parses and compiles again.
  auto& cache = CompiledRulesetCache::Instance();
  const std::string text = OneRuleText("gone");
  {
    const auto held = cache.GetOrCompileText(text, nullptr);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(cache.GetOrCompileText(text, nullptr).get(), held.get());
  }
  const auto again = cache.GetOrCompileText(text, nullptr);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_expired->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_misses->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 1u);  // only the held repeat
  EXPECT_EQ(cache.AliasCount(), 1u);
}

TEST_F(SigCacheTest, PeriodicSweepPrunesDeadAliases) {
  auto& cache = CompiledRulesetCache::Instance();
  constexpr std::size_t kChurned = 8;
  for (std::size_t i = 0; i < kChurned; ++i) {
    auto compiled =
        cache.GetOrCompileText(OneRuleText("churn" + std::to_string(i)),
                               nullptr);
    ASSERT_NE(compiled, nullptr);
  }
  EXPECT_EQ(cache.AliasCount(), kChurned);  // dead but retained
  EXPECT_EQ(cache.TotalEntryCount(), kChurned);

  const std::string text = OneRuleText("live");
  const auto live = cache.GetOrCompileText(text, nullptr);
  for (std::uint64_t i = 0; i < CompiledRulesetCache::kSweepInterval; ++i) {
    EXPECT_EQ(cache.GetOrCompileText(text, nullptr).get(), live.get());
  }
  EXPECT_EQ(cache.AliasCount(), 1u);  // only the live text survives
  EXPECT_EQ(cache.TotalEntryCount(), 1u);
}

TEST_F(SigCacheTest, ConcurrentTextLookupsShareOneCompile) {
  // µmbox launches on every shard look texts up at once. One builtin
  // compile is held throughout, so every lookup of its text must return
  // it; each thread's own text is compiled and dropped over and over.
  auto& cache = CompiledRulesetCache::Instance();
  const std::string builtin(BuiltinRulesText());
  const auto held = cache.GetOrCompileText(builtin, nullptr);
  ASSERT_NE(held, nullptr);
  constexpr int kThreads = 4;
  constexpr int kLookups = 200;
  std::vector<int> other_builtin(kThreads, 0);
  std::vector<int> wrong_own(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string own = OneRuleText("thread" + std::to_string(t));
      for (int i = 0; i < kLookups; ++i) {
        std::string error;
        if (cache.GetOrCompileText(builtin, &error).get() != held.get()) {
          ++other_builtin[t];
        }
        const auto mine = cache.GetOrCompileText(own, &error);
        if (mine == nullptr || mine->RuleCount() != 1 ||
            mine->rules()[0].contents[0].bytes !=
                "thread" + std::to_string(t)) {
          ++wrong_own[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(other_builtin[t], 0) << "thread " << t;
    EXPECT_EQ(wrong_own[t], 0) << "thread " << t;
  }
  EXPECT_LE(cache.AliasCount(), std::size_t{kThreads + 1});
}

}  // namespace
}  // namespace iotsec::sig
