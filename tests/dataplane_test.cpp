// Tests for the Click-lite element framework, the standard elements, the
// config language, and the µmbox lifecycle.
#include <gtest/gtest.h>

#include "dataplane/cluster.h"
#include "dataplane/elements.h"
#include "dataplane/graph.h"
#include "dataplane/umbox.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/iotctl.h"
#include "sig/corpus.h"

namespace iotsec::dataplane {
namespace {

using net::Ipv4Address;
using net::MacAddress;

/// Fixed-key context view for element tests.
class FakeContext final : public ContextView {
 public:
  std::map<std::string, std::string> values;
  [[nodiscard]] std::optional<std::string> Get(
      const std::string& key) const override {
    const auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
};

struct Harness {
  sim::Simulator sim;
  FakeContext context;
  std::vector<net::PacketPtr> egress;
  std::vector<Alert> alerts;

  ElementContext Ctx() {
    ElementContext ctx;
    ctx.sim = &sim;
    ctx.context = &context;
    return ctx;
  }

  std::unique_ptr<MboxGraph> BuildGraph(std::string_view config) {
    std::string error;
    auto graph = MboxGraph::Build(config, Ctx(), &error);
    EXPECT_NE(graph, nullptr) << error;
    if (graph) {
      graph->SetEgress([this](net::PacketPtr p) {
        egress.push_back(std::move(p));
      });
      graph->SetAlertSink([this](Alert a) { alerts.push_back(std::move(a)); });
    }
    return graph;
  }
};

net::PacketPtr UdpPacket(Ipv4Address src, Ipv4Address dst,
                         std::uint16_t dport, const Bytes& payload,
                         std::uint16_t sport = 40000) {
  return net::MakePacket(proto::BuildUdpFrame(MacAddress::FromId(1),
                                              MacAddress::FromId(2), src, dst,
                                              sport, dport, payload));
}

TEST(ConfigParseTest, ParseConfigArgs) {
  std::string error;
  auto cfg = ParseConfigArgs("a=1, b = two , c=\"x, y\"", &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->at("a"), "1");
  EXPECT_EQ(cfg->at("b"), "two");
  EXPECT_EQ(cfg->at("c"), "x, y");
  EXPECT_FALSE(ParseConfigArgs("=3", &error).has_value());
  EXPECT_FALSE(ParseConfigArgs("a=\"unterminated", &error).has_value());
  EXPECT_TRUE(ParseConfigArgs("", &error).has_value());
}

TEST(GraphTest, BuildsChainAndRoutesPackets) {
  Harness h;
  auto graph = h.BuildGraph(
      "c1 :: Counter()\n"
      "c2 :: Counter()\n"
      "c1 -> c2\n");
  ASSERT_NE(graph, nullptr);
  graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                          9, ToBytes("x")));
  ASSERT_EQ(h.egress.size(), 1u);
  EXPECT_EQ(static_cast<Counter*>(graph->Find("c1"))->Packets(), 1u);
  EXPECT_EQ(static_cast<Counter*>(graph->Find("c2"))->Packets(), 1u);
}

TEST(GraphTest, EntryDirectiveAndPorts) {
  Harness h;
  auto graph = h.BuildGraph(
      "t :: Tee(ports=2)\n"
      "a :: Counter()\n"
      "b :: Counter()\n"
      "entry t\n"
      "t [0] -> a\n"
      "t [1] -> b\n");
  ASSERT_NE(graph, nullptr);
  graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                          9, ToBytes("x")));
  EXPECT_EQ(static_cast<Counter*>(graph->Find("a"))->Packets(), 1u);
  EXPECT_EQ(static_cast<Counter*>(graph->Find("b"))->Packets(), 1u);
  EXPECT_EQ(h.egress.size(), 2u);  // both copies exit
}

TEST(GraphTest, RejectsBadConfigs) {
  Harness h;
  std::string error;
  auto ctx = h.Ctx();
  EXPECT_EQ(MboxGraph::Build("x :: NoSuchElement()", ctx, &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(MboxGraph::Build("a -> b", ctx, &error), nullptr);  // undeclared
  EXPECT_EQ(MboxGraph::Build("c :: Counter(\n", ctx, &error), nullptr);
  EXPECT_EQ(MboxGraph::Build("", ctx, &error), nullptr);  // no elements
  EXPECT_EQ(MboxGraph::Build("c :: Counter()\nentry zz\n", ctx, &error),
            nullptr);
  EXPECT_EQ(
      MboxGraph::Build("c :: Counter()\nc :: Counter()\n", ctx, &error),
      nullptr);  // duplicate name
  EXPECT_EQ(MboxGraph::Build("r :: RateLimiter(rate_pps=-5)", ctx, &error),
            nullptr);  // element config validation propagates
}

TEST(GraphTest, RejectsTextThatWouldDesyncStatements) {
  // Each of these would leave a stray quote that carries the statement
  // splitter past the end of the line, into whatever follows the config.
  Harness h;
  GraphDiag diag;
  const auto ctx = h.Ctx();
  EXPECT_EQ(MboxGraph::Build("a\" :: Counter()", ctx, &diag), nullptr);
  EXPECT_EQ(diag.col, 1) << diag.ToString();
  EXPECT_EQ(MboxGraph::Build("a :: Counter() \"", ctx, &diag), nullptr);
  EXPECT_EQ(diag.message, "unexpected text after ')'");
  EXPECT_EQ(MboxGraph::Build("a :: Counter(k\"=1)", ctx, &diag), nullptr);
  EXPECT_EQ(diag.message, "quote in config key");
  // Ports are bounded, so a hostile port number cannot size a wire table.
  EXPECT_EQ(MboxGraph::Build("a :: Counter()\nb :: Counter()\n"
                             "a [4000000000] -> b\n",
                             ctx, &diag),
            nullptr);
  EXPECT_EQ(diag.message, "bad output port");
  EXPECT_NE(MboxGraph::Build("a :: Counter()\nb :: Counter()\n"
                             "a [255] -> [255] b\n",
                             ctx, &diag),
            nullptr);
}

TEST(GraphTest, KeepsEachElementsDeclaration) {
  Harness h;
  const std::string text =
      "# chain\n"
      "c1 :: Counter()\n"
      "  t :: Tee(ports=3)\n"
      "c1 -> t\n";
  auto graph = h.BuildGraph(text);
  ASSERT_NE(graph, nullptr);
  ASSERT_EQ(graph->declarations().size(), 2u);
  const auto& tee = graph->declarations()[1];
  EXPECT_EQ(graph->elements()[1]->name(), "t");
  EXPECT_EQ(tee.line, 3);
  EXPECT_EQ(tee.col, 3);
  EXPECT_EQ(tee.config.at("ports"), "3");
  EXPECT_EQ(graph->StatementOf(tee), "  t :: Tee(ports=3)");
}

TEST(GraphTest, CrowdSpliceBecomesTheEntry) {
  Harness h;
  const std::vector<std::string> rules = {
      "block udp any any -> any 9999 (msg:\"bad\"; sid:7; content:EVIL; )"};
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"c :: Counter()\nd :: Counter()\nc -> d\n", "c"},
      {"c :: Counter()\nd :: Counter()\nc -> d\nentry d", "d"},
      {"d :: Counter()\n# trailing comment, no newline", "d"}};
  for (const auto& [config, entry] : cases) {
    SCOPED_TRACE(config);
    const std::string spliced = SpliceCrowdMatcher(config, rules);
    std::string error;
    auto graph = MboxGraph::Build(spliced, h.Ctx(), &error);
    ASSERT_NE(graph, nullptr) << error << "\n" << spliced;
    EXPECT_EQ(graph->entry()->name(), kCrowdElement);
    const auto& wires = graph->entry()->wires();
    ASSERT_EQ(wires.size(), 1u);
    EXPECT_EQ(wires[0].next, graph->Find(entry));
  }
  // Nothing to splice, or nothing that could launch: the text is kept.
  EXPECT_EQ(SpliceCrowdMatcher("c :: Counter()\n", {}), "c :: Counter()\n");
  EXPECT_EQ(SpliceCrowdMatcher("", rules), "");
  EXPECT_EQ(SpliceCrowdMatcher("c -> d\n", rules), "c -> d\n");
}

TEST(ElementTest, DiscardDropsEverything) {
  Harness h;
  auto graph = h.BuildGraph("d :: Discard()\n");
  graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                          9, ToBytes("x")));
  EXPECT_TRUE(h.egress.empty());
  EXPECT_EQ(graph->Find("d")->stats().dropped, 1u);
}

TEST(ElementTest, RateLimiterEnforcesTokenBucket) {
  Harness h;
  auto graph = h.BuildGraph("r :: RateLimiter(rate_pps=10, burst=5)\n");
  // Burst of 8 at t=0: 5 pass, 3 drop.
  for (int i = 0; i < 8; ++i) {
    graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                            9, ToBytes("x")));
  }
  EXPECT_EQ(h.egress.size(), 5u);
  // After one second, ~10 more tokens accrue (capped at burst).
  h.sim.RunFor(kSecond);
  h.sim.After(0, [] {});
  for (int i = 0; i < 6; ++i) {
    graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                            9, ToBytes("x")));
  }
  EXPECT_EQ(h.egress.size(), 10u);  // 5 more (burst cap)
  EXPECT_FALSE(h.alerts.empty());
}

TEST(ElementTest, IpFilterDenyAndDefault) {
  Harness h;
  auto graph = h.BuildGraph(
      "f :: IpFilter(deny=\"203.0.113.0/24\", default=allow)\n");
  graph->Inject(UdpPacket(Ipv4Address(203, 0, 113, 7), Ipv4Address(10, 0, 0, 2),
                          9, ToBytes("evil")));
  EXPECT_TRUE(h.egress.empty());
  graph->Inject(UdpPacket(Ipv4Address(10, 0, 0, 5), Ipv4Address(10, 0, 0, 2),
                          9, ToBytes("fine")));
  EXPECT_EQ(h.egress.size(), 1u);
}

TEST(ElementTest, IpFilterDefaultDenyWithAllowList) {
  Harness h;
  auto graph = h.BuildGraph(
      "f :: IpFilter(allow=\"10.0.0.0/24\", default=deny)\n");
  graph->Inject(UdpPacket(Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 2),
                          9, ToBytes("ok")));
  EXPECT_EQ(h.egress.size(), 1u);
  graph->Inject(UdpPacket(Ipv4Address(8, 8, 8, 8), Ipv4Address(9, 9, 9, 9),
                          9, ToBytes("nope")));
  EXPECT_EQ(h.egress.size(), 1u);
}

TEST(ElementTest, StatefulFirewallBlocksUnsolicitedInbound) {
  Harness h;
  auto graph = h.BuildGraph(
      "fw :: StatefulFirewall(allow_inbound=false, inside=10.0.0.0/24)\n");
  const Ipv4Address device(10, 0, 0, 5);
  const Ipv4Address remote(99, 1, 1, 1);

  // Unsolicited inbound: dropped.
  graph->Inject(UdpPacket(remote, device, 5009, ToBytes("cmd"), 777));
  EXPECT_TRUE(h.egress.empty());
  ASSERT_FALSE(h.alerts.empty());
  EXPECT_EQ(h.alerts[0].kind, "firewall");

  // Outbound primes the tracker; the reply then passes.
  graph->Inject(UdpPacket(device, remote, 123, ToBytes("ntp query"), 888));
  EXPECT_EQ(h.egress.size(), 1u);
  graph->Inject(UdpPacket(remote, device, 888, ToBytes("ntp reply"), 123));
  EXPECT_EQ(h.egress.size(), 2u);
}

TEST(ElementTest, SignatureMatcherBlocksBackdoor) {
  Harness h;
  auto graph = h.BuildGraph("sig :: SignatureMatcher(rules=builtin)\n");
  proto::IotCtlMessage msg;
  msg.command = proto::IotCommand::kTurnOn;
  msg.backdoor = true;
  graph->Inject(UdpPacket(Ipv4Address(10, 0, 0, 200), Ipv4Address(10, 0, 0, 5),
                          proto::kIotCtlPort, msg.Serialize()));
  EXPECT_TRUE(h.egress.empty());
  ASSERT_FALSE(h.alerts.empty());
  EXPECT_EQ(h.alerts[0].kind, "signature");
  ASSERT_FALSE(h.alerts[0].sids.empty());
  EXPECT_EQ(h.alerts[0].sids[0], sig::kSidIotBackdoor);
}

TEST(ElementTest, SignatureMatcherInlineRules) {
  Harness h;
  auto graph = h.BuildGraph(
      "sig :: SignatureMatcher(rules=\"block udp any any -> any 9999 "
      "(msg:bad; sid:7; content:EVIL; )\")\n");
  ASSERT_NE(graph, nullptr);
  graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                          9999, ToBytes("xxEVILxx")));
  EXPECT_TRUE(h.egress.empty());
  graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                          9999, ToBytes("benign")));
  EXPECT_EQ(h.egress.size(), 1u);
}

TEST(ElementTest, SignatureMatcherQuotedRulesSpanLines) {
  // One rule per line inside the quoted value (how crowd rulesets are
  // spliced into a chain): the newline belongs to the value.
  constexpr char kTwoRules[] =
      "sig :: SignatureMatcher(rules=\"block udp any any -> any 9999 "
      "(msg:bad; sid:7; content:EVIL; )\n"
      "block udp any any -> any 9999 (msg:worse; sid:8; content:VILE; )\")\n";
  Harness h;
  auto graph = h.BuildGraph(std::string("# a stray \" in a comment\n") +
                            kTwoRules + "c :: Counter()\nsig -> c\n");
  ASSERT_NE(graph, nullptr);
  for (const char* payload : {"xxEVILxx", "xxVILExx"}) {
    graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1),
                            Ipv4Address(2, 2, 2, 2), 9999,
                            ToBytes(payload)));
  }
  EXPECT_TRUE(h.egress.empty()) << "both rules must load";
  graph->Inject(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                          9999, ToBytes("benign")));
  EXPECT_EQ(h.egress.size(), 1u);

  // Diagnostics keep counting source lines across the value's newline.
  std::string error;
  EXPECT_EQ(MboxGraph::Build(std::string(kTwoRules) + "x :: NoSuchElement()",
                             h.Ctx(), &error),
            nullptr);
  EXPECT_EQ(error.rfind("line 3:", 0), 0u) << error;
}

TEST(ElementTest, DnsGuardBlocksAmplificationAndSpoofedClients) {
  Harness h;
  auto graph = h.BuildGraph(
      "g :: DnsGuard(allow_any=false, expected_clients=10.0.0.0/24)\n");
  proto::DnsMessage any_q;
  any_q.questions.push_back({"x.example", proto::DnsType::kAny});
  proto::DnsMessage a_q;
  a_q.questions.push_back({"x.example", proto::DnsType::kA});

  // ANY from a LAN client: blocked (amplification probe).
  graph->Inject(UdpPacket(Ipv4Address(10, 0, 0, 9), Ipv4Address(10, 0, 0, 5),
                          proto::kDnsPort, any_q.Serialize()));
  EXPECT_TRUE(h.egress.empty());
  // A query from off-LAN (spoofed victim source): blocked.
  graph->Inject(UdpPacket(Ipv4Address(198, 51, 100, 1),
                          Ipv4Address(10, 0, 0, 5), proto::kDnsPort,
                          a_q.Serialize()));
  EXPECT_TRUE(h.egress.empty());
  // Normal A query from the LAN: passes.
  graph->Inject(UdpPacket(Ipv4Address(10, 0, 0, 9), Ipv4Address(10, 0, 0, 5),
                          proto::kDnsPort, a_q.Serialize()));
  EXPECT_EQ(h.egress.size(), 1u);
}

net::PacketPtr HttpPacket(Ipv4Address src, Ipv4Address dst,
                          const proto::HttpRequest& req) {
  proto::TcpHeader tcp;
  tcp.src_port = 41000;
  tcp.dst_port = 80;
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  return net::MakePacket(proto::BuildTcpFrame(
      MacAddress::FromId(9), MacAddress::FromId(5), src, dst, tcp,
      req.Serialize()));
}

TEST(ElementTest, PasswordProxyRewritesAndRejects) {
  Harness h;
  auto graph = h.BuildGraph(
      "p :: PasswordProxy(device_ip=10.0.0.5, user=admin, "
      "password=Str0ngPass, device_user=admin, device_password=admin)\n");
  const Ipv4Address device(10, 0, 0, 5);
  const Ipv4Address client(10, 0, 0, 9);

  // Correct administrator credential: forwarded with the device's
  // hardcoded credential substituted.
  proto::HttpRequest good;
  good.path = "/admin";
  good.SetHeader("Authorization", proto::BasicAuthValue("admin", "Str0ngPass"));
  graph->Inject(HttpPacket(client, device, good));
  ASSERT_EQ(h.egress.size(), 1u);
  auto fwd = proto::ParseFrame(h.egress[0]->data());
  ASSERT_TRUE(fwd.has_value());
  auto fwd_req = proto::HttpRequest::Parse(fwd->payload);
  ASSERT_TRUE(fwd_req.has_value());
  auto creds = proto::ParseBasicAuth(*fwd_req->Header("Authorization"));
  ASSERT_TRUE(creds.has_value());
  EXPECT_EQ(creds->second, "admin") << "proxy must present the device cred";

  // The device's default credential from the outside: rejected with 401
  // (this is the whole point: the hardcoded password no longer works).
  h.egress.clear();
  proto::HttpRequest bad;
  bad.path = "/admin";
  bad.SetHeader("Authorization", proto::BasicAuthValue("admin", "admin"));
  graph->Inject(HttpPacket(client, device, bad));
  ASSERT_EQ(h.egress.size(), 1u);  // the crafted 401
  auto rej = proto::ParseFrame(h.egress[0]->data());
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->ip->dst, client);
  auto resp = proto::HttpResponse::Parse(rej->payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 401);
  EXPECT_FALSE(h.alerts.empty());

  // Traffic not aimed at the protected device passes untouched.
  h.egress.clear();
  graph->Inject(UdpPacket(client, Ipv4Address(10, 0, 0, 77), 5009,
                          ToBytes("other")));
  EXPECT_EQ(h.egress.size(), 1u);
}

TEST(ElementTest, ContextGateBlocksUnlessContextMatches) {
  Harness h;
  auto graph = h.BuildGraph(
      "g :: ContextGate(cmd=turn_on, key=device.cam.state, "
      "equals=person_detected, else=drop)\n");
  proto::IotCtlMessage on;
  on.command = proto::IotCommand::kTurnOn;
  auto pkt = [&] {
    return UdpPacket(Ipv4Address(10, 0, 0, 200), Ipv4Address(10, 0, 0, 6),
                     proto::kIotCtlPort, on.Serialize());
  };

  // No context: blocked.
  graph->Inject(pkt());
  EXPECT_TRUE(h.egress.empty());
  EXPECT_EQ(h.alerts.size(), 1u);

  // Wrong context: blocked.
  h.context.values["device.cam.state"] = "idle";
  graph->Inject(pkt());
  EXPECT_TRUE(h.egress.empty());

  // Required context: passes.
  h.context.values["device.cam.state"] = "person_detected";
  graph->Inject(pkt());
  EXPECT_EQ(h.egress.size(), 1u);

  // Other commands are not the gate's business.
  proto::IotCtlMessage off;
  off.command = proto::IotCommand::kTurnOff;
  h.context.values["device.cam.state"] = "idle";
  graph->Inject(UdpPacket(Ipv4Address(10, 0, 0, 200), Ipv4Address(10, 0, 0, 6),
                          proto::kIotCtlPort, off.Serialize()));
  EXPECT_EQ(h.egress.size(), 2u);
}

TEST(ElementTest, AnomalyDetectorFlagsRateSpike) {
  Harness h;
  auto graph = h.BuildGraph(
      "a :: AnomalyDetector(window_ms=1000, threshold=3.0)\n");
  const Ipv4Address src(10, 0, 0, 9);
  // Baseline: 5 packets/sec for 10 seconds.
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 5; ++i) {
      graph->Inject(UdpPacket(src, Ipv4Address(10, 0, 0, 5), 9, ToBytes("x")));
    }
    h.sim.RunFor(kSecond);
  }
  EXPECT_TRUE(h.alerts.empty());
  // Spike: 100 packets in one window.
  for (int i = 0; i < 100; ++i) {
    graph->Inject(UdpPacket(src, Ipv4Address(10, 0, 0, 5), 9, ToBytes("x")));
  }
  h.sim.RunFor(kSecond);
  graph->Inject(UdpPacket(src, Ipv4Address(10, 0, 0, 5), 9, ToBytes("x")));
  EXPECT_FALSE(h.alerts.empty());
}

// ----------------------------------------------------------------- Umbox

TEST(UmboxTest, BootLatencyOrdering) {
  EXPECT_LT(BootLatency(BootModel::kProcess), BootLatency(BootModel::kMicroVm));
  EXPECT_LT(BootLatency(BootModel::kMicroVm),
            BootLatency(BootModel::kContainer));
  EXPECT_LT(BootLatency(BootModel::kContainer),
            BootLatency(BootModel::kFullVm));
}

TEST(UmboxTest, QueuesDuringBootThenDrains) {
  Harness h;
  UmboxSpec spec;
  spec.id = 1;
  spec.config_text = "c :: Counter()\n";
  spec.boot = BootModel::kMicroVm;
  std::string error;
  auto box = Umbox::Create(spec, h.Ctx(), &error);
  ASSERT_NE(box, nullptr) << error;
  std::vector<net::PacketPtr> out;
  box->SetEgress([&](net::PacketPtr p) { out.push_back(std::move(p)); });

  box->Boot();
  box->Process(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 9,
                         ToBytes("queued")));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(box->state(), UmboxState::kBooting);
  h.sim.RunFor(BootLatency(BootModel::kMicroVm) + kMillisecond);
  EXPECT_EQ(box->state(), UmboxState::kRunning);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(box->stats().queued_during_boot, 1u);
}

TEST(UmboxTest, HotReconfigureHasNoDowntime) {
  Harness h;
  UmboxSpec spec;
  spec.id = 3;
  spec.config_text = "c :: Counter()\n";
  std::string error;
  auto box = Umbox::Create(spec, h.Ctx(), &error);
  ASSERT_NE(box, nullptr);
  std::vector<net::PacketPtr> out;
  box->SetEgress([&](net::PacketPtr p) { out.push_back(std::move(p)); });
  box->Boot();
  h.sim.RunFor(kSecond);

  ASSERT_TRUE(box->Reconfigure("d :: Discard()\n", &error)) << error;
  EXPECT_EQ(box->state(), UmboxState::kRunning) << "hot reconfig never boots";
  box->Process(UdpPacket(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 9,
                         ToBytes("x")));
  EXPECT_TRUE(out.empty());  // new graph (Discard) is already active
  EXPECT_EQ(box->stats().reconfigs, 1u);

  // An invalid new config must leave the old graph running.
  EXPECT_FALSE(box->Reconfigure("x :: Bogus()\n", &error));
  EXPECT_EQ(box->state(), UmboxState::kRunning);
}

TEST(UmboxTest, RestartPaysBootLatencyAgain) {
  Harness h;
  UmboxSpec spec;
  spec.id = 4;
  spec.config_text = "c :: Counter()\n";
  std::string error;
  auto box = Umbox::Create(spec, h.Ctx(), &error);
  ASSERT_NE(box, nullptr);
  box->Boot();
  h.sim.RunFor(kSecond);
  ASSERT_TRUE(box->Restart("c2 :: Counter()\n", &error));
  EXPECT_EQ(box->state(), UmboxState::kBooting);
  h.sim.RunFor(BootLatency(spec.boot) + kMillisecond);
  EXPECT_EQ(box->state(), UmboxState::kRunning);
  EXPECT_EQ(box->stats().restarts, 1u);
}

TEST(UmboxTest, InvalidConfigFailsAtCreate) {
  Harness h;
  UmboxSpec spec;
  spec.config_text = "x :: NotAThing()\n";
  std::string error;
  EXPECT_EQ(Umbox::Create(spec, h.Ctx(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

// --------------------------------------------------------------- Cluster

TEST(ClusterTest, LeastLoadedPlacementAndCapacity) {
  sim::Simulator sim;
  UmboxHost host1(1, sim, /*capacity=*/2);
  UmboxHost host2(2, sim, /*capacity=*/2);
  Cluster cluster;
  cluster.AddHost(&host1);
  cluster.AddHost(&host2);

  ElementContext ctx;
  ctx.sim = &sim;
  std::string error;
  auto launch = [&](UmboxId id) {
    UmboxSpec spec;
    spec.id = id;
    spec.config_text = "c :: Counter()\n";
    UmboxHost* host = cluster.PickHost();
    EXPECT_NE(host, nullptr);
    return host->Launch(spec, ctx, &error);
  };
  EXPECT_NE(launch(1), nullptr);
  EXPECT_NE(launch(2), nullptr);
  EXPECT_EQ(host1.load() + host2.load(), 2);
  EXPECT_EQ(std::abs(host1.load() - host2.load()), 0)
      << "least-loaded placement must balance";
  EXPECT_NE(launch(3), nullptr);
  EXPECT_NE(launch(4), nullptr);
  EXPECT_EQ(cluster.PickHost(), nullptr) << "cluster full";
  EXPECT_EQ(cluster.TotalLoad(), 4);
  EXPECT_NE(cluster.Find(3), nullptr);
  EXPECT_TRUE(cluster.HostOf(3) == &host1 || cluster.HostOf(3) == &host2);
}

}  // namespace
}  // namespace iotsec::dataplane
