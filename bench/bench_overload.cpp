// Overload bench: admission control vs the open-loop baseline.
//
// A 4-camera deployment whose µmbox cluster hangs off a 2 Mbit/s uplink
// is swept over offered HTTP load from 0.5x to 4x of nominal, with and
// without a concurrent fault plan, in two arms:
//
//   baseline   AdmissionMode::kMonitor — the controller samples and
//              levels but never acts. At >= 2x the drop-tail queues fill,
//              queueing delay dwarfs the response deadline and goodput
//              falls off a cliff while the packet pool blows through its
//              budget (both recorded).
//   admission  AdmissionMode::kEnforce — ingress backpressure sheds the
//              excess at the switch, launches/restarts are gated, and
//              goodput degrades smoothly instead.
//
// Goodput = HTTP responses arriving within kDeadline of their request.
//
// Acceptance gates:
//   * goodput@2x >= 70% of goodput@1x in the admission arm (HARD)
//   * zero pool-exhausted samples in every admission arm cell (HARD)
//   * admission decision digest bit-identical across {1, 2, 8} shards
//     at 2x + faults (HARD — determinism is never relaxed)
//   * total wall clock under budget — relaxed when IOTSEC_BENCH_LAX_PERF
//     is set (CI shared runners)
//
// Emits BENCH_overload.json; exit 1 on any hard-gate failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/iotsec.h"
#include "net/packet.h"
#include "obs/obs.h"

using namespace iotsec;

namespace {

// Calibration: the 2 Mbit/s cluster uplink serves ~800 request/response
// pairs per second (a pair crosses it twice — request in, response
// re-diverted — at ~0.42 ms/packet), so 1x = 500 req/s sits at ~60%
// utilisation, 2x is genuinely over capacity and 4x pins the 256-deep
// drop-tail queue. A round trip across that pinned queue costs ~215 ms —
// far past the deadline — while the shed threshold (500 permille of the
// 240-packet pool budget = 120 live) holds the queue where a round trip
// is ~100 ms, inside it. The budget also sits below the pinned queue, so
// an uncontrolled overload *is* pool exhaustion.
constexpr SimDuration kBaseInterval = 2 * kMillisecond;  // 1x = 500 req/s
constexpr SimDuration kWarmup = 1 * kSecond;
constexpr SimDuration kMeasure = 8 * kSecond;
constexpr SimDuration kDrain = 1 * kSecond;
constexpr SimDuration kDeadline = 150 * kMillisecond;
constexpr std::size_t kPoolBudget = 240;

struct Cell {
  // Offered load as a multiple of capacity; interval = base / mult.
  const char* label = "";
  int divisor = 1;     // interval = kBaseInterval * divisor ...
  int multiplier = 1;  // ... / multiplier (exact integer arithmetic)
};

struct RunResult {
  std::uint64_t offered = 0;   // probes issued inside the measure window
  std::uint64_t responses = 0;
  std::uint64_t on_time = 0;   // responses within kDeadline
  std::uint64_t pool_exhausted = 0;
  std::uint64_t backpressure_drops = 0;
  std::uint64_t deferred_restarts = 0;
  std::uint64_t shed_launches = 0;
  std::uint64_t transitions = 0;
  std::uint64_t digest = 0;
  int final_level = 0;
  double goodput_pps = 0;
  double wall_seconds = 0;
};

RunResult RunCell(const Cell& cell, control::AdmissionMode mode, bool faults,
                  int shards) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::FlightRecorder::Global().Clear();

  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.cluster_hosts = 1;
  opts.host_capacity = 16;
  // Fast access fabric, narrow serving path: every diverted request
  // crosses the 2 Mbit/s cluster uplink twice (to-µmbox and verdict),
  // so the µmbox path — not the client's access link — is the
  // contended resource admission control protects.
  opts.cluster_link = net::LinkConfig{};
  opts.cluster_link->bandwidth_bps = 2e6;
  opts.admission.mode = mode;
  opts.admission.pool_capacity = kPoolBudget;
  opts.admission.defer_enter_permille = 350;
  opts.admission.shed_enter_permille = 500;
  opts.admission.fail_closed_enter_permille = 700;
  opts.admission.exit_margin_permille = 120;
  core::Deployment dep(opts);

  std::vector<devices::Camera*> cams;
  for (int i = 0; i < 4; ++i) {
    cams.push_back(dep.AddCamera("cam" + std::to_string(i)));
  }

  // Permissive inspection posture: every camera's traffic transits its
  // µmbox, so the cluster uplink serves (and bounds) all request flow.
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(500 * kMillisecond);  // boot µmboxes before offering load

  if (faults) {
    fault::PlanConfig cfg;
    cfg.start = dep.Now() + kWarmup;
    cfg.horizon = kMeasure / 2;
    cfg.umbox_crash_rate_hz = 0.3;
    for (auto* cam : cams) cfg.devices.push_back(cam->id());
    cfg.links = dep.chaos().LinkCount();
    dep.chaos().Schedule(dep.chaos().BuildPlan(cfg));
  }

  RunResult result;
  const SimTime t0 = dep.Now();
  const SimTime measure_start = t0 + kWarmup;
  const SimTime measure_end = measure_start + kMeasure;
  const SimDuration interval =
      kBaseInterval * cell.divisor / cell.multiplier;

  std::size_t next = 0;
  auto ticker = dep.sim().Every(interval, [&] {
    const SimTime now = dep.Now();
    if (now >= measure_end) return;
    auto* cam = cams[next++ % cams.size()];
    const bool counted = now >= measure_start;
    if (counted) ++result.offered;
    dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                           [&result, counted, &dep,
                            deadline = now + kDeadline](
                               const proto::HttpResponse& r) {
                             if (!counted || r.status != 200) return;
                             ++result.responses;
                             if (dep.Now() <= deadline) ++result.on_time;
                           });
  });
  dep.RunFor(kWarmup + kMeasure + kDrain);
  ticker.Cancel();

  const auto& stats = dep.admission()->stats();
  result.pool_exhausted = stats.pool_exhausted_samples;
  result.backpressure_drops = stats.backpressure_drops;
  result.deferred_restarts = stats.deferred_restarts;
  result.shed_launches = stats.shed_launches;
  result.transitions = stats.transitions;
  result.digest = dep.admission()->DecisionDigest();
  result.final_level = static_cast<int>(dep.admission()->level());
  result.goodput_pps =
      static_cast<double>(result.on_time) /
      (static_cast<double>(kMeasure) / static_cast<double>(kSecond));
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* ArmName(control::AdmissionMode mode) {
  return mode == control::AdmissionMode::kEnforce ? "admission" : "baseline";
}

}  // namespace

int main() {
  net::SetPacketTracing(false);
  const bool lax_perf = std::getenv("IOTSEC_BENCH_LAX_PERF") != nullptr;
  const auto bench_start = std::chrono::steady_clock::now();

  const std::vector<Cell> cells = {
      {"0.5x", 2, 1}, {"1x", 1, 1}, {"2x", 1, 2}, {"4x", 1, 4}};

  struct Row {
    const char* load;
    const char* arm;
    bool faults;
    int shards;
    RunResult r;
  };
  std::vector<Row> rows;

  double goodput_1x_admission = 0, goodput_2x_admission = 0;
  double goodput_1x_baseline = 0, goodput_2x_baseline = 0;
  std::uint64_t admission_exhausted = 0;
  std::uint64_t baseline_exhausted_overload = 0;

  for (const bool faults : {false, true}) {
    for (const auto mode : {control::AdmissionMode::kMonitor,
                            control::AdmissionMode::kEnforce}) {
      for (const Cell& cell : cells) {
        const RunResult r = RunCell(cell, mode, faults, /*shards=*/2);
        rows.push_back({cell.label, ArmName(mode), faults, 2, r});
        std::printf(
            "%-9s %-5s faults=%d  offered=%6llu on_time=%6llu "
            "(%6.1f/s)  shed=%6llu defer=%4llu level=%d exhausted=%llu\n",
            ArmName(mode), cell.label, faults ? 1 : 0,
            static_cast<unsigned long long>(r.offered),
            static_cast<unsigned long long>(r.on_time), r.goodput_pps,
            static_cast<unsigned long long>(r.backpressure_drops),
            static_cast<unsigned long long>(r.deferred_restarts),
            r.final_level,
            static_cast<unsigned long long>(r.pool_exhausted));

        const bool is_enforce = mode == control::AdmissionMode::kEnforce;
        if (is_enforce) admission_exhausted += r.pool_exhausted;
        if (!faults && is_enforce) {
          if (std::string(cell.label) == "1x")
            goodput_1x_admission = r.goodput_pps;
          if (std::string(cell.label) == "2x")
            goodput_2x_admission = r.goodput_pps;
        }
        if (!faults && !is_enforce) {
          if (std::string(cell.label) == "1x")
            goodput_1x_baseline = r.goodput_pps;
          if (std::string(cell.label) == "2x")
            goodput_2x_baseline = r.goodput_pps;
        }
        if (!is_enforce && std::string(cell.label) != "0.5x" &&
            std::string(cell.label) != "1x") {
          baseline_exhausted_overload += r.pool_exhausted;
        }
      }
    }
  }

  // Determinism: the decision trace at 2x + faults across shard counts.
  std::printf("\n== determinism: 2x + faults across shard counts ==\n");
  const Cell two_x = {"2x", 1, 2};
  bool deterministic = true;
  std::uint64_t ref_digest = 0;
  for (const int shards : {1, 2, 8}) {
    const RunResult r =
        RunCell(two_x, control::AdmissionMode::kEnforce, /*faults=*/true,
                shards);
    rows.push_back({"2x", "determinism", true, shards, r});
    std::printf("  shards=%d digest=%s decisions: shed=%llu defer=%llu "
                "transitions=%llu\n",
                shards, Hex(r.digest).c_str(),
                static_cast<unsigned long long>(r.backpressure_drops),
                static_cast<unsigned long long>(r.deferred_restarts),
                static_cast<unsigned long long>(r.transitions));
    if (shards == 1) {
      ref_digest = r.digest;
    } else if (r.digest != ref_digest) {
      deterministic = false;
      std::printf("!! DETERMINISM VIOLATION at %d shards\n", shards);
    }
  }

  const double ratio_admission =
      goodput_1x_admission > 0 ? goodput_2x_admission / goodput_1x_admission
                               : 0;
  const double ratio_baseline =
      goodput_1x_baseline > 0 ? goodput_2x_baseline / goodput_1x_baseline : 0;
  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  const bool goodput_pass = ratio_admission >= 0.70;
  const bool pool_pass = admission_exhausted == 0;
  const double wall_budget = 300.0;
  const bool wall_pass = lax_perf || total_wall <= wall_budget;
  const bool pass = goodput_pass && pool_pass && deterministic && wall_pass;

  if (FILE* json = std::fopen("BENCH_overload.json", "w")) {
    bench::JsonWriter w(json);
    w.BeginObject();
    w.Key("cells");
    w.BeginArray();
    for (const Row& row : rows) {
      w.BeginObject();
      w.Field("load", row.load);
      w.Field("arm", row.arm);
      w.Field("faults", row.faults);
      w.Field("shards", row.shards);
      w.Field("offered", row.r.offered);
      w.Field("responses", row.r.responses);
      w.Field("on_time", row.r.on_time);
      w.Field("goodput_pps", row.r.goodput_pps, 1);
      w.Field("pool_exhausted_samples", row.r.pool_exhausted);
      w.Field("backpressure_drops", row.r.backpressure_drops);
      w.Field("deferred_restarts", row.r.deferred_restarts);
      w.Field("shed_launches", row.r.shed_launches);
      w.Field("level_transitions", row.r.transitions);
      w.Field("final_level", row.r.final_level);
      w.Field("wall_seconds", row.r.wall_seconds, 3);
      w.Key("digest");
      w.Value(Hex(row.r.digest));
      w.EndObject();
    }
    w.EndArray();
    w.Key("acceptance");
    w.BeginObject();
    w.Field("goodput_2x_over_1x_admission", ratio_admission, 3);
    w.Field("goodput_2x_over_1x_baseline", ratio_baseline, 3);
    w.Field("required_ratio", 0.70, 2);
    w.Field("admission_pool_exhausted_samples", admission_exhausted);
    w.Field("baseline_pool_exhausted_overload_samples",
            baseline_exhausted_overload);
    w.Field("deterministic", deterministic);
    w.Field("total_wall_seconds", total_wall, 1);
    w.Field("wall_budget_seconds", wall_budget, 0);
    w.Field("lax_perf", lax_perf);
    w.Field("goodput_pass", goodput_pass);
    w.Field("pool_pass", pool_pass);
    w.Field("wall_pass", wall_pass);
    w.Field("pass", pass);
    w.EndObject();
    w.EndObject();
    std::fclose(json);
    std::printf("\nwrote BENCH_overload.json\n");
  }

  std::printf(
      "goodput 2x/1x: admission %.2f (need >= 0.70), baseline %.2f "
      "(cliff)\npool exhausted: admission %llu (need 0), baseline@overload "
      "%llu\ndeterministic: %s  wall: %.1fs\n",
      ratio_admission, ratio_baseline,
      static_cast<unsigned long long>(admission_exhausted),
      static_cast<unsigned long long>(baseline_exhausted_overload),
      deterministic ? "yes" : "NO", total_wall);
  return pass ? 0 : 1;
}
