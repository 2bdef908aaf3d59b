// End-to-end crowd-to-enforcement pipeline: a signature published (and
// quorum-accepted) in the repository stages through the signed rollout
// pipeline to the µmboxes of every device with the matching SKU — herd
// immunity without touching policy. Rules that predate the deployment
// are the SKU's baseline at first launch, and a device that joins later
// starts at its SKU's stable version. Every case runs at 1 shard and on a
// threaded 2-shard set.
#include <gtest/gtest.h>

#include <string>

#include "core/iotsec.h"

namespace iotsec {
namespace {

// A flaw the built-in corpus does NOT cover: a malicious "reboot" loop
// triggered with the device's own (leaked) credential. Only a crowd rule
// can stop it.
constexpr char kCrowdRule[] =
    "block udp any any -> any 5009 (msg:\"leaked-cred reboot abuse\"; "
    "sid:9400; iotcmd:reboot; )";

/// Publishes `rule_text` for `sku` and votes it past the quorum.
void AcceptRule(learn::CrowdRepo& repo, const char* rule_text,
                const char* sku = "Wemo-Insight") {
  learn::SignatureReport report;
  report.sku = sku;
  report.rule_text = rule_text;
  report.contributor = "some-other-home";
  const auto id = repo.Publish(report).id;
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(id, voter, true);
  }
}

/// Three Wemo plugs and a camera (another SKU) under Monitor, with a
/// crowd repo attached, on `shards` threaded shards.
struct RolloutPipelineWorld {
  learn::CrowdRepo own_repo;
  learn::CrowdRepo& repo;
  core::Deployment dep;
  devices::SmartPlug* wemo = nullptr;
  devices::Camera* cam = nullptr;

  static core::DeploymentOptions Options(int shards) {
    core::DeploymentOptions options;
    options.shards = shards;
    options.shard_threads = true;
    options.rollout.stages = {500, 1000};
    options.rollout.stage_hold = 200 * kMillisecond;
    return options;
  }

  /// `pre_accepted`: a rule the repository accepted before the
  /// deployment attached it (nullptr for none). `shared`: another
  /// home's repository to attach instead of an own one. `posture`: what
  /// every device runs.
  explicit RolloutPipelineWorld(
      int shards, const char* pre_accepted = nullptr,
      learn::CrowdRepo* shared = nullptr,
      const policy::Posture& posture = core::MonitorPosture())
      : repo(shared != nullptr ? *shared : own_repo), dep(Options(shards)) {
    if (pre_accepted != nullptr) AcceptRule(repo, pre_accepted);
    wemo = dep.AddSmartPlug("wemo", "oven_power");  // SKU Wemo-Insight
    dep.AddSmartPlug("wemo2", "tv_power");
    dep.AddSmartPlug("wemo3", "lamp_power");
    cam = dep.AddCamera("cam");  // SKU Avtech-AVN801
    policy::FsmPolicy policy;
    policy.SetDefault(posture);
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.controller().AttachCrowdRepo(&repo);
    dep.Start();
    dep.RunFor(kSecond);
  }

  void PublishAndAccept(const char* rule_text = kCrowdRule) {
    AcceptRule(repo, rule_text);
    // Control latency + canary hold (x2 stages) + slack.
    dep.RunFor(2 * kSecond);
  }

  /// Sends `cmd` with the plug's leaked credential; returns the device's
  /// result code ("" when the network ate the command).
  std::string SendCommand(devices::Device* plug, proto::IotCommand cmd) {
    std::string result;
    dep.attacker().SendIotCommand(
        plug->spec().ip, plug->spec().mac, cmd, plug->spec().credential,
        false, [&](const proto::IotCtlMessage& resp) {
          result = resp.Find(proto::IotTag::kResultCode).value_or("");
        });
    dep.RunFor(2 * kSecond);
    return result;
  }
  std::string SendRebootAbuse(devices::Device* plug) {
    return SendCommand(plug, proto::IotCommand::kReboot);
  }
  std::string SendRebootAbuse() { return SendRebootAbuse(wemo); }

  /// Whether `device`'s running µmbox chain carries the crowd matcher.
  bool ChainHasCrowdRules(devices::Device* device) {
    const auto id = dep.controller().UmboxOf(device->id());
    if (!id) return false;
    const dataplane::Umbox* box = dep.cluster().Find(*id);
    return box != nullptr && box->graph() != nullptr &&
           box->graph()->Find("crowd") != nullptr;
  }
};

class RolloutPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(RolloutPipelineTest, AcceptedSignatureStagesToFleetAndEnforces) {
  RolloutPipelineWorld w(GetParam());
  ASSERT_NE(w.dep.rollout(), nullptr);
  EXPECT_EQ(w.SendRebootAbuse(), "unsupported")
      << "no crowd rule yet: the abuse reaches the device";

  w.PublishAndAccept();
  const auto* coord = w.dep.rollout();
  EXPECT_EQ(coord->StableOf("Wemo-Insight"), 1u)
      << "healthy canary must promote to the whole fleet";
  EXPECT_EQ(coord->stats().promotions, 1u);
  EXPECT_EQ(coord->stats().rollbacks, 0u);
  EXPECT_EQ(w.dep.version_store()->Latest("Wemo-Insight"), 1u);

  // Every Wemo µmbox now runs version 1 and blocks the abuse in-network.
  EXPECT_EQ(w.SendRebootAbuse(), "");
  EXPECT_GT(w.dep.controller().stats().crowd_rules_applied, 0u);
  // Benign commands still pass through the patched chain.
  EXPECT_EQ(w.SendCommand(w.wemo, proto::IotCommand::kTurnOn), "ok");
  EXPECT_EQ(w.wemo->State(), "on");
}

TEST_P(RolloutPipelineTest, DeclaredEntryStillMeetsTheCrowdRules) {
  // The posture names its own injection point. The crowd splice must
  // still put the crowd matcher in front of it, or every packet enters
  // at `count` and the accepted rule never sees the abuse.
  policy::Posture posture = core::MonitorPosture();
  posture.umbox_config += "entry count\n";
  RolloutPipelineWorld w(GetParam(), nullptr, nullptr, posture);
  w.PublishAndAccept();
  ASSERT_EQ(w.dep.rollout()->StableOf("Wemo-Insight"), 1u);
  ASSERT_TRUE(w.ChainHasCrowdRules(w.wemo));
  EXPECT_EQ(w.SendRebootAbuse(), "")
      << "the declared entry let the abuse bypass the crowd matcher";
  EXPECT_EQ(w.SendCommand(w.wemo, proto::IotCommand::kTurnOn), "ok");
}

TEST_P(RolloutPipelineTest, SecondVersionRidesTheFastSwapPath) {
  RolloutPipelineWorld w(GetParam());
  w.PublishAndAccept();
  ASSERT_EQ(w.dep.rollout()->StableOf("Wemo-Insight"), 1u);

  w.PublishAndAccept(
      "block udp any any -> any 5009 (msg:\"unlock abuse\"; "
      "sid:9401; iotcmd:unlock; )");
  EXPECT_EQ(w.dep.rollout()->StableOf("Wemo-Insight"), 2u);
  // v1's rule still enforces after the delta upgrade to v2.
  EXPECT_EQ(w.SendRebootAbuse(), "");
}

TEST_P(RolloutPipelineTest, OtherSkusUnaffected) {
  RolloutPipelineWorld w(GetParam());
  w.PublishAndAccept();
  ASSERT_EQ(w.dep.rollout()->StableOf("Wemo-Insight"), 1u);

  // The camera's chain was not touched (different SKU); it still answers.
  EXPECT_EQ(w.dep.rollout()->VersionOf(w.cam->id()), 0u);
  EXPECT_FALSE(w.ChainHasCrowdRules(w.cam));
  int status = 0;
  w.dep.attacker().HttpGet(w.cam->spec().ip, w.cam->spec().mac, "/",
                           std::nullopt, [&](const proto::HttpResponse& r) {
                             status = r.status;
                           });
  w.dep.RunFor(2 * kSecond);
  EXPECT_EQ(status, 200);
}

TEST_P(RolloutPipelineTest, PreAcceptedRuleIsActiveAtFirstLaunch) {
  RolloutPipelineWorld w(GetParam(), kCrowdRule);
  const auto* coord = w.dep.rollout();
  // The rule predates the deployment: it is the SKU's baseline, not a
  // canary candidate.
  EXPECT_EQ(coord->StableOf("Wemo-Insight"), 1u);
  EXPECT_EQ(coord->stats().rollouts_started, 0u);
  EXPECT_EQ(coord->VersionOf(w.wemo->id()), 1u);
  // The first launch carried it: no repatch was needed.
  EXPECT_TRUE(w.ChainHasCrowdRules(w.wemo));
  EXPECT_EQ(w.dep.controller().stats().crowd_rules_applied, 0u);
  EXPECT_EQ(w.SendRebootAbuse(), "")
      << "pre-accepted rule must be active at launch";
  EXPECT_EQ(coord->VersionOf(w.cam->id()), 0u);
}

TEST_P(RolloutPipelineTest, LateDeviceJoinsAtTheStableVersion) {
  RolloutPipelineWorld w(GetParam());
  w.PublishAndAccept();
  const auto stable = w.dep.rollout()->StableOf("Wemo-Insight");
  ASSERT_EQ(stable, 1u);

  devices::SmartPlug* late = w.dep.AddSmartPlug("wemo4", "fan_power");
  EXPECT_EQ(w.dep.rollout()->VersionOf(late->id()), stable);
  // Any view event wakes the sweep that gives the late plug its µmbox;
  // its first launch carries the fleet's ruleset.
  w.dep.controller().SetDeviceContext("wemo4", "normal");
  w.dep.RunFor(kSecond);
  EXPECT_TRUE(w.ChainHasCrowdRules(late));
  EXPECT_EQ(w.SendRebootAbuse(late), "");
}

TEST_P(RolloutPipelineTest, SplicedCrowdMatcherSharesTheReceiversCompile) {
  // The splice strips the rule texts' quotes, so a launch looks up a
  // text the receiver never parsed. It must still land on the receiver's
  // compile: one ruleset, one automaton.
  RolloutPipelineWorld w(GetParam());
  w.PublishAndAccept();
  ASSERT_EQ(w.dep.rollout()->StableOf("Wemo-Insight"), 1u);
  devices::SmartPlug* late = w.dep.AddSmartPlug("wemo4", "fan_power");
  w.dep.controller().SetDeviceContext("wemo4", "normal");
  w.dep.RunFor(kSecond);

  const auto id = w.dep.controller().UmboxOf(late->id());
  ASSERT_TRUE(id.has_value());
  const dataplane::Umbox* box = w.dep.cluster().Find(*id);
  ASSERT_NE(box, nullptr);
  ASSERT_NE(box->graph(), nullptr);
  const auto* crowd = dynamic_cast<const dataplane::SignatureMatcher*>(
      box->graph()->Find("crowd"));
  ASSERT_NE(crowd, nullptr);
  const rollout::RulesetReceiver* receiver =
      w.dep.rollout()->ReceiverOf(late->id());
  ASSERT_NE(receiver, nullptr);
  ASSERT_NE(receiver->compiled(), nullptr);
  EXPECT_EQ(crowd->rules().compiled().get(), receiver->compiled().get());
}

TEST_P(RolloutPipelineTest, HomesSharingARepoBothEnforce) {
  RolloutPipelineWorld home(GetParam());
  RolloutPipelineWorld neighbour(GetParam(), nullptr, &home.repo);
  home.PublishAndAccept();
  neighbour.dep.RunFor(2 * kSecond);
  for (RolloutPipelineWorld* w : {&home, &neighbour}) {
    EXPECT_EQ(w->dep.rollout()->StableOf("Wemo-Insight"), 1u);
    EXPECT_EQ(w->dep.rollout()->VersionOf(w->wemo->id()), 1u);
    EXPECT_EQ(w->SendRebootAbuse(), "") << "each home's fleet enforces";
  }
}

TEST_P(RolloutPipelineTest, SkuFirstRegisteredAfterAttachGetsItsRules) {
  RolloutPipelineWorld w(GetParam());
  AcceptRule(w.repo, kCrowdRule, "Hue-A19");
  w.dep.RunFor(kSecond);
  devices::LightBulb* bulb = w.dep.AddLightBulb("bulb");  // SKU Hue-A19
  const auto* coord = w.dep.rollout();
  EXPECT_EQ(coord->StableOf("Hue-A19"), 1u) << "accepted before it joined";
  EXPECT_EQ(coord->VersionOf(bulb->id()), 1u);

  // Later acceptances for the new SKU stage through the pipeline.
  AcceptRule(w.repo,
             "block udp any any -> any 5009 (msg:\"unlock abuse\"; "
             "sid:9401; iotcmd:unlock; )",
             "Hue-A19");
  w.dep.RunFor(2 * kSecond);
  EXPECT_EQ(coord->StableOf("Hue-A19"), 2u);
  EXPECT_EQ(coord->VersionOf(bulb->id()), 2u);
  w.dep.controller().SetDeviceContext("bulb", "normal");
  w.dep.RunFor(kSecond);
  EXPECT_TRUE(w.ChainHasCrowdRules(bulb));
}

TEST_P(RolloutPipelineTest, PostureOwnCrowdMatcherKeepsItsRules) {
  // `crowd` is reserved for the controller's splice. A posture that
  // declares its own keeps its own rules: the rollout does not swap the
  // crowd ruleset into it, and the splice it tries instead declares
  // `crowd` twice and is refused. The refusal is recorded once.
  policy::Posture posture;
  posture.profile = "own-crowd";
  posture.umbox_config = "crowd :: SignatureMatcher(rules=builtin)\n";
  RolloutPipelineWorld w(GetParam(), nullptr, nullptr, posture);
  const auto own_rule_count = [&w] {
    const auto id = w.dep.controller().UmboxOf(w.wemo->id());
    if (!id) return std::size_t{0};
    const dataplane::Umbox* box = w.dep.cluster().Find(*id);
    if (box == nullptr || box->graph() == nullptr) return std::size_t{0};
    const auto* matcher = dynamic_cast<const dataplane::SignatureMatcher*>(
        box->graph()->Find("crowd"));
    return matcher != nullptr ? matcher->rules().RuleCount() : 0;
  };
  const std::size_t builtin = sig::BuiltinRules().size();
  ASSERT_EQ(own_rule_count(), builtin);

  w.PublishAndAccept();
  ASSERT_EQ(w.dep.rollout()->VersionOf(w.wemo->id()), 1u);
  EXPECT_EQ(own_rule_count(), builtin)
      << "the rollout overwrote the posture's own matcher";
  EXPECT_EQ(w.dep.controller().stats().crowd_rules_applied, 0u);
  int refusals = 0;
  for (const auto& entry :
       w.dep.controller().audit().Of(control::AuditCategory::kCrowd)) {
    EXPECT_EQ(entry.message.find("swapped"), std::string::npos)
        << entry.ToString();
    if (entry.device == "wemo" &&
        entry.message.rfind("rollout ruleset refused", 0) == 0) {
      ++refusals;
    }
  }
  EXPECT_EQ(refusals, 1) << "one refusal per installed version";
}

INSTANTIATE_TEST_SUITE_P(Shards, RolloutPipelineTest, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Shard";
                         });

}  // namespace
}  // namespace iotsec
