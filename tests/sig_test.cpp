// Tests for the Aho-Corasick engine, the Snort-lite rule language, and the
// compiled ruleset.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "proto/dns.h"
#include "proto/frame.h"
#include "proto/http.h"
#include "sig/aho_corasick.h"
#include "sig/corpus.h"
#include "sig/ruleset.h"

namespace iotsec::sig {
namespace {

using net::Ipv4Address;
using net::MacAddress;

Bytes Payload(std::string_view s) { return ToBytes(s); }

std::vector<int> SortedIds(const std::vector<AhoCorasick::Match>& matches) {
  std::vector<int> ids;
  for (const auto& m : matches) ids.push_back(m.pattern_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(AhoCorasickTest, FindsOverlappingPatterns) {
  AhoCorasick ac;
  const int he = ac.AddPattern("he");
  const int she = ac.AddPattern("she");
  const int his = ac.AddPattern("his");
  const int hers = ac.AddPattern("hers");
  ac.Build();
  const auto text = Payload("ushers");
  auto matches = ac.FindAll(text);
  auto ids = SortedIds(matches);
  EXPECT_EQ(ids, (std::vector<int>{he, she, hers}));
  (void)his;
}

TEST(AhoCorasickTest, NocaseMatchesBothCases) {
  AhoCorasick ac;
  const int id = ac.AddPattern("Admin", /*nocase=*/true);
  const int cs = ac.AddPattern("ROOT", /*nocase=*/false);
  ac.Build();
  EXPECT_EQ(SortedIds(ac.FindAll(Payload("xxADMINxx"))), std::vector<int>{id});
  EXPECT_EQ(SortedIds(ac.FindAll(Payload("xxadminxx"))), std::vector<int>{id});
  EXPECT_TRUE(ac.FindAll(Payload("xxrootxx")).empty());
  EXPECT_EQ(SortedIds(ac.FindAll(Payload("xxROOTxx"))), std::vector<int>{cs});
}

TEST(AhoCorasickTest, EmptyInputs) {
  AhoCorasick ac;
  EXPECT_EQ(ac.AddPattern(""), -1);
  ac.AddPattern("x");
  ac.Build();
  EXPECT_TRUE(ac.FindAll({}).empty());
  EXPECT_FALSE(ac.MatchesAny({}));
}

class AcEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: AhoCorasick finds exactly the same matches as the naive
// per-pattern scanner, on random patterns over a small alphabet (small
// alphabets maximize overlap and failure-link stress).
TEST_P(AcEquivalenceTest, MatchesNaiveScanner) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    AhoCorasick ac;
    NaiveMatcher naive;
    const int n_patterns = 1 + static_cast<int>(rng.NextBelow(12));
    for (int p = 0; p < n_patterns; ++p) {
      const auto len = 1 + rng.NextBelow(6);
      std::string pat;
      for (std::size_t i = 0; i < len; ++i) {
        pat += static_cast<char>('a' + rng.NextBelow(3));
      }
      const bool nocase = rng.NextBool(0.3);
      ac.AddPattern(pat, nocase);
      naive.AddPattern(pat, nocase);
    }
    ac.Build();
    const auto text_len = rng.NextBelow(200);
    Bytes text;
    for (std::size_t i = 0; i < text_len; ++i) {
      const char c = static_cast<char>('a' + rng.NextBelow(3));
      text.push_back(static_cast<std::uint8_t>(
          rng.NextBool(0.2) ? std::toupper(c) : c));
    }
    auto got = ac.FindAll(text);
    auto want = naive.FindAll(text);
    auto key = [](const AhoCorasick::Match& m) {
      return std::make_pair(m.end_offset, m.pattern_id);
    };
    std::sort(got.begin(), got.end(), [&](auto a, auto b) { return key(a) < key(b); });
    std::sort(want.begin(), want.end(), [&](auto a, auto b) { return key(a) < key(b); });
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].pattern_id, want[i].pattern_id);
      EXPECT_EQ(got[i].end_offset, want[i].end_offset);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(RuleParseTest, FullRuleRoundTrip) {
  std::string error;
  auto rule = ParseRule(
      "block udp 10.0.0.0/24 any -> any 5009 "
      "(msg:\"backdoor\"; sid:42; content:\"evil|00 01|\"; nocase; "
      "iot_backdoor; )",
      &error);
  ASSERT_TRUE(rule.has_value()) << error;
  EXPECT_EQ(rule->action, RuleAction::kBlock);
  EXPECT_EQ(rule->proto, RuleProto::kUdp);
  EXPECT_EQ(rule->sid, 42u);
  EXPECT_EQ(rule->msg, "backdoor");
  ASSERT_EQ(rule->contents.size(), 1u);
  EXPECT_EQ(rule->contents[0].bytes, std::string("evil\x00\x01", 6));
  EXPECT_TRUE(rule->contents[0].nocase);
  EXPECT_TRUE(rule->require_iot_backdoor);
  EXPECT_EQ(rule->dst_port.value(), 5009);
  EXPECT_FALSE(rule->src_port.has_value());

  // ToText must itself reparse to an equivalent rule.
  auto reparsed = ParseRule(rule->ToText(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error << " <- " << rule->ToText();
  EXPECT_EQ(reparsed->sid, rule->sid);
  EXPECT_EQ(reparsed->contents[0].bytes, rule->contents[0].bytes);
  EXPECT_EQ(reparsed->require_iot_backdoor, rule->require_iot_backdoor);
}

TEST(RuleParseTest, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(ParseRule("alert tcp any any any any (sid:1;)", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseRule("frobnicate tcp any any -> any any (sid:1;)", &error));
  EXPECT_FALSE(ParseRule("alert tcp any any -> any any", &error));
  EXPECT_FALSE(ParseRule("alert tcp any any -> any any (content:\"|zz|\";)", &error));
  EXPECT_FALSE(ParseRule("alert tcp any any -> any 99999 (sid:1;)", &error));
  EXPECT_FALSE(ParseRule("alert tcp any any -> any any (nocase;)", &error));
  // 2^32 + 1 would alias sid 1.
  EXPECT_FALSE(
      ParseRule("alert tcp any any -> any any (sid:4294967297;)", &error));
  // Comments and blanks: nullopt with no error.
  EXPECT_FALSE(ParseRule("# comment", &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(ParseRule("   ", &error));
  EXPECT_TRUE(error.empty());
}

TEST(RuleParseTest, QuoteInsideAQuotedValueIsRejected) {
  // Accepted as the last option, msg `a"b` would come back from ToText
  // as the first one, where its odd quote swallows the options after it.
  std::string error;
  EXPECT_FALSE(ParseRule(
      "alert tcp any any -> any any (sid:1; msg:\"a\"b\")", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseRule(
      "alert tcp any any -> any any (sid:1; http_path:\"/a\"\")", &error));
  EXPECT_FALSE(error.empty());
}

TEST(RuleParseTest, SemicolonInsideQuotedContent) {
  std::string error;
  auto rule =
      ParseRule("alert tcp any any -> any any (content:\"a;b\"; sid:7;)",
                &error);
  ASSERT_TRUE(rule.has_value()) << error;
  EXPECT_EQ(rule->contents[0].bytes, "a;b");
  EXPECT_EQ(rule->sid, 7u);
}

proto::ParsedFrame MustParse(const Bytes& wire) {
  auto f = proto::ParseFrame(wire);
  EXPECT_TRUE(f.has_value());
  return *f;
}

TEST(RuleSetTest, DefaultPasswordSignatureFires) {
  RuleSet rs(BuiltinRules());
  proto::HttpRequest req;
  req.path = "/admin";
  req.SetHeader("Authorization", proto::BasicAuthValue("admin", "admin"));
  Bytes wire = proto::BuildTcpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 9),
      Ipv4Address(10, 0, 0, 2),
      proto::TcpHeader{.src_port = 5555, .dst_port = 80,
                       .flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck},
      req.Serialize());
  auto verdict = rs.Evaluate(MustParse(wire));
  EXPECT_TRUE(verdict.Matched());
  EXPECT_TRUE(std::count(verdict.matched_sids.begin(),
                         verdict.matched_sids.end(),
                         kSidDefaultPasswordLogin));
}

TEST(RuleSetTest, BackdoorBlocked) {
  RuleSet rs(BuiltinRules());
  proto::IotCtlMessage msg;
  msg.command = proto::IotCommand::kTurnOn;
  msg.backdoor = true;
  Bytes wire = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(172, 16, 0, 4),
      Ipv4Address(10, 0, 0, 3), 9999, proto::kIotCtlPort, msg.Serialize());
  auto verdict = rs.Evaluate(MustParse(wire));
  EXPECT_TRUE(verdict.ShouldBlock());
  EXPECT_TRUE(std::count(verdict.matched_sids.begin(),
                         verdict.matched_sids.end(), kSidIotBackdoor));
}

TEST(RuleSetTest, LegitCommandPasses) {
  RuleSet rs(BuiltinRules());
  proto::IotCtlMessage msg;
  msg.command = proto::IotCommand::kTurnOn;
  msg.SetAuthToken("proper-token");
  Bytes wire = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 5),
      Ipv4Address(10, 0, 0, 3), 9999, proto::kIotCtlPort, msg.Serialize());
  auto verdict = rs.Evaluate(MustParse(wire));
  EXPECT_FALSE(verdict.ShouldBlock());
  EXPECT_FALSE(verdict.Matched());
}

TEST(RuleSetTest, DnsAmplificationBlockedButNormalQueryPasses) {
  RuleSet rs(BuiltinRules());
  proto::DnsMessage any_query;
  any_query.questions.push_back({"victim.example", proto::DnsType::kAny});
  Bytes amp = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(1, 2, 3, 4),
      Ipv4Address(10, 0, 0, 6), 53000, proto::kDnsPort, any_query.Serialize());
  EXPECT_TRUE(rs.Evaluate(MustParse(amp)).ShouldBlock());

  proto::DnsMessage a_query;
  a_query.questions.push_back({"time.example", proto::DnsType::kA});
  Bytes normal = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 8),
      Ipv4Address(10, 0, 0, 6), 53000, proto::kDnsPort, a_query.Serialize());
  EXPECT_FALSE(rs.Evaluate(MustParse(normal)).ShouldBlock());
}

TEST(RuleSetTest, PassRuleWhitelistsOverBlock) {
  auto rules = ParseRules(
      "block udp any any -> any 5009 (msg:\"all iotctl\"; sid:1; )\n"
      "pass udp 10.0.0.1 any -> any 5009 (msg:\"trusted hub\"; sid:2; )\n");
  ASSERT_EQ(rules.size(), 2u);
  RuleSet rs(rules);
  proto::IotCtlMessage msg;
  msg.command = proto::IotCommand::kTurnOff;
  // The parsed view's spans point into the frame bytes, so the buffers
  // must outlive the Evaluate calls.
  std::vector<Bytes> wires;
  auto make = [&](Ipv4Address src) {
    wires.push_back(proto::BuildUdpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2), src,
        Ipv4Address(10, 0, 0, 3), 1000, proto::kIotCtlPort, msg.Serialize()));
    return MustParse(wires.back());
  };
  // Untrusted source: blocked.
  EXPECT_TRUE(rs.Evaluate(make(Ipv4Address(10, 0, 0, 99))).ShouldBlock());
  // Trusted hub: pass rule wins.
  EXPECT_FALSE(rs.Evaluate(make(Ipv4Address(10, 0, 0, 1))).ShouldBlock());
}

TEST(RuleSetTest, MultiContentRequiresAll) {
  auto rules = ParseRules(
      "alert tcp any any -> any any (sid:5; content:\"alpha\"; content:\"beta\"; )\n");
  RuleSet rs(rules);
  // Keep the frame bytes alive past each Evaluate: the parsed view's
  // spans point into them.
  std::vector<Bytes> wires;
  auto make = [&](std::string_view payload) {
    wires.push_back(proto::BuildTcpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 1),
        Ipv4Address(10, 0, 0, 2),
        proto::TcpHeader{.src_port = 1, .dst_port = 2,
                         .flags = proto::TcpFlags::kPsh},
        ToBytes(payload)));
    return MustParse(wires.back());
  };
  EXPECT_FALSE(rs.Evaluate(make("only alpha here")).Matched());
  EXPECT_FALSE(rs.Evaluate(make("only beta here")).Matched());
  EXPECT_TRUE(rs.Evaluate(make("alpha then beta")).Matched());
}

TEST(CorpusTest, BuiltinCorpusParsesCleanly) {
  std::vector<std::string> errors;
  auto rules = ParseRules(BuiltinRulesText(), &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(rules.size(), 8u);
  // Every rule's ToText must reparse.
  for (const auto& r : rules) {
    std::string error;
    auto round = ParseRule(r.ToText(), &error);
    ASSERT_TRUE(round.has_value()) << error << " <- " << r.ToText();
    EXPECT_EQ(round->sid, r.sid);
  }
}

}  // namespace
}  // namespace iotsec::sig
