// Tests for common utilities and the discrete-event simulator.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/types.h"
#include "learn/crowd.h"
#include "rollout/manifest.h"
#include "sdn/shard_map.h"
#include "sim/simulator.h"
#include "verify/model_check.h"

namespace iotsec {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(13);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (auto idx : p) {
    ASSERT_LT(idx, 50u);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The child should not replay the parent's future values.
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(Split("a,b,,c", ',')[2], "");
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  auto ws = SplitWhitespace("  alpha\tbeta  gamma ");
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[1], "beta");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_TRUE(EqualsIgnoreCase("Content-Length", "content-length"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(StartsWith("/admin/x", "/admin"));
  EXPECT_TRUE(EndsWith("file.rules", ".rules"));
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

// The helpers classify bytes by ASCII tests, never by the process locale:
// over all 256 bytes they give the C locale's answers, and no byte >= 0x80
// is ever trimmed, split on or case-folded.
TEST(StringsTest, AsciiOnlyClassification) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string one(1, c);
    const bool space = b == ' ' || (b >= '\t' && b <= '\r');
    SCOPED_TRACE(b);
    EXPECT_EQ(IsAsciiSpace(c), space);
    EXPECT_EQ(Trim(one).empty(), space);
    EXPECT_EQ(SplitWhitespace("a" + one + "b").size(), space ? 2u : 1u);
    const char lower =
        b >= 'A' && b <= 'Z' ? static_cast<char>(b - 'A' + 'a') : c;
    EXPECT_EQ(AsciiToLower(c), lower);
    EXPECT_EQ(ToLower(one), std::string(1, lower));
    for (int o = 0; o < 256; ++o) {
      const char d = static_cast<char>(o);
      const bool same_letter = AsciiToLower(c) == AsciiToLower(d);
      EXPECT_EQ(EqualsIgnoreCase(one, std::string(1, d)), same_letter);
      if (b >= 0x80) {
        EXPECT_EQ(EqualsIgnoreCase(one, std::string(1, d)), b == o);
      }
    }
  }
  // High bytes around and inside a token stay put.
  const std::string high = "\xa0\x85 x\xc3\x89y \xa0";
  EXPECT_EQ(Trim(high), high);
  EXPECT_EQ(Trim(" \xa0 "), "\xa0");
  const auto parts = SplitWhitespace("\x85\xa0 x\xc3\x89y");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "\x85\xa0");
  EXPECT_EQ(parts[1], "x\xc3\x89y");
  EXPECT_EQ(ToLower("\xc3\x89" "A"), "\xc3\x89" "a");
}

TEST(StringsTest, ParseUint) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(ParseUint("", v));
  EXPECT_FALSE(ParseUint("12x", v));
  EXPECT_FALSE(ParseUint("-3", v));
  EXPECT_FALSE(ParseUint("99999999999999999999999", v));  // overflow
}

TEST(BytesTest, WriterReaderRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0102030405060708ull);
  w.Str("xyz");
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_EQ(r.Str(3), "xyz");
  EXPECT_TRUE(r.Ok());
  EXPECT_EQ(r.Remaining(), 0u);
}

TEST(BytesTest, ReaderOverrunSetsError) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  r.U32();
  EXPECT_FALSE(r.Ok());
}

TEST(BytesTest, InternetChecksumKnownVector) {
  // Example from RFC 1071 discussions.
  Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t sum = InternetChecksum(data);
  // Verify the defining property: checksumming data + checksum == 0.
  Bytes with;
  with = data;
  with.push_back(static_cast<std::uint8_t>(sum >> 8));
  with.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(InternetChecksum(with), 0);
}

TEST(StatsTest, PercentilesAndMean) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_DOUBLE_EQ(stats.Mean(), 50.5);
  EXPECT_EQ(stats.Min(), 1);
  EXPECT_EQ(stats.Max(), 100);
  EXPECT_NEAR(stats.Percentile(50), 50, 1);
  EXPECT_NEAR(stats.Percentile(99), 99, 1);
  EXPECT_EQ(stats.Count(), 100u);
}

// Golden values for common/hash.h, computed by the private copies each
// primitive replaced. Every pinned digest, cache key and pseudonym is
// built from these, so a change here moves them all.
TEST(HashTest, FnvFoldsMatchGoldenValues) {
  EXPECT_EQ(hash::Fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash::Fnv1a("hello"), 0xa430d84680aabd0bull);
  EXPECT_EQ(hash::Fnv1a("ctx:7"), 0xd8a59fcf62d5cb81ull);
  EXPECT_EQ(hash::Fnv1a(Bytes{1, 2, 3}), 0xd0aa6218672cf5abull);
  EXPECT_EQ(hash::Fnv1a("lo", hash::Fnv1a("hel")), hash::Fnv1a("hello"));
  EXPECT_EQ(hash::Fnv1aU64(0x0123456789abcdefull), 0x37eb3f3347761c55ull);
}

// rollout::HashRuleText and the crowd pseudonyms fold from FNV's offset
// basis with its last digit missing; rollout digests pin that seed.
TEST(HashTest, TruncatedSeedKeepsRuleHashesAndPseudonyms) {
  EXPECT_EQ(hash::kTruncatedFnvOffset * 10 + 7, hash::kFnvOffset);
  EXPECT_EQ(rollout::HashRuleText("alert tcp any any -> any any (sid:1; )"),
            0x31ff14e413be4cdaull);
  EXPECT_EQ(rollout::HashRuleList({"a", "b"}), 0x89e3f607d408e78cull);
  learn::SignatureReport report;
  report.observables["user"] = "alice";
  learn::AnonymizeReport(report);
  EXPECT_EQ(report.observables["user"], "anon-c3cca816cda5");
}

TEST(HashTest, MixersMatchGoldenValues) {
  EXPECT_EQ(hash::Fmix64(0), 0u);
  EXPECT_EQ(hash::Fmix64(1), 0xb456bcfc34c2cb2cull);
  EXPECT_EQ(hash::Fmix64(0xdeadbeef), 0xd24bd59f862a1dacull);
  EXPECT_EQ(hash::MixPair(0, 0), 0u);
  EXPECT_EQ(hash::MixPair(1, 2), 0xbeeb8da1658eec67ull);
  EXPECT_EQ(hash::MixPair(3, 4), 0x12a764fb66abc9cfull);
  // splitmix64's first two outputs from state 0.
  EXPECT_EQ(hash::SplitMix64(hash::kGolden), 0xe220a8397b1dcdafull);
  EXPECT_EQ(hash::SplitMix64(2 * hash::kGolden), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(sdn::MixDeviceId(7), 0x63cbe1e459320dd7ull);
  EXPECT_EQ(Rng(42).NextU64(), 0x15780b2e0c2ec716ull);
}

// --mc-cache files are keyed by ModelCheckKey: a moved key turns every
// cached result into a miss.
TEST(HashTest, ModelCheckKeyMatchesGoldenValue) {
  verify::ModelCheckInput in;
  in.devices = {1, 2};
  in.device_names = {{1, "cam"}, {2, "lock"}};
  in.goals = {"root:cam"};
  in.extra_rule_texts = {"alert tcp any any -> any any (sid:1; )"};
  EXPECT_EQ(verify::ModelCheckKey(in), 0x1ea9cbad196303a9ull);
}

// SipHash-2-4 reference vectors: key 00..0f, message 00..(n-1).
TEST(HashTest, SipHash24KnownAnswers) {
  constexpr std::uint64_t k0 = 0x0706050403020100ull;
  constexpr std::uint64_t k1 = 0x0f0e0d0c0b0a0908ull;
  std::string msg;
  EXPECT_EQ(hash::SipHash24(k0, k1, msg), 0x726fdb47dd0e0e31ull);
  for (char c = 0; c < 15; ++c) msg += c;
  EXPECT_EQ(hash::SipHash24(k0, k1, msg), 0xa129ca6149be45e5ull);
}

TEST(TypesTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(1500), "1.500us");
  EXPECT_EQ(FormatDuration(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatDuration(3 * kSecond), "3.000s");
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, TiesFireInInsertionOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.At(5, [&] { order.push_back(1); });
  sim.At(5, [&] { order.push_back(2); });
  sim.At(5, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, CancelPreventsFiring) {
  sim::Simulator sim;
  bool fired = false;
  auto handle = sim.After(10, [&] { fired = true; });
  EXPECT_TRUE(handle.Pending());
  handle.Cancel();
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(handle.Pending());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  sim::Simulator sim;
  int count = 0;
  sim.At(10, [&] { ++count; });
  sim.At(20, [&] { ++count; });
  sim.At(30, [&] { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EveryRepeatsUntilCancelled) {
  sim::Simulator sim;
  int ticks = 0;
  auto handle = sim.Every(10, [&] { ++ticks; });
  sim.RunUntil(55);
  EXPECT_EQ(ticks, 5);
  handle.Cancel();
  sim.RunUntil(200);
  EXPECT_EQ(ticks, 5);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  sim::Simulator sim;
  std::vector<SimTime> times;
  sim.At(10, [&] {
    times.push_back(sim.Now());
    sim.After(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, PastEventsClampToNow) {
  sim::Simulator sim;
  sim.At(100, [&] {
    sim.At(50, [&] {
      // Scheduled "in the past": must fire at now, not violate ordering.
      EXPECT_GE(sim.Now(), 100u);
    });
  });
  sim.Run();
}

}  // namespace
}  // namespace iotsec
