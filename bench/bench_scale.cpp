// Scaling bench: the sharded dataplane from 1k to 1M devices.
//
// Sweeps a ShardedFleet (per-device µmboxes behind edge switches, see
// src/core/sharded_fleet.h) over device populations and shard counts and
// emits BENCH_scale.json. Three acceptance gates:
//
//   * Determinism (HARD, never relaxed): for a fixed seed, the fleet's
//     end-state digest — an order-independent fold of every delivered
//     frame's bytes and delivery time — must be bit-identical at every
//     shard count, and no Post may violate the conservative-lookahead
//     contract (late_posts == 0). This is the whole point of the lockstep
//     quantum/mailbox design; a mismatch is a correctness bug, not noise.
//
//   * Throughput: >= 2.5x packets/sec at 4 shards vs 1 shard on the
//     largest swept cell. Relaxed to a sanity floor when the machine
//     cannot parallelize (hardware_concurrency() < 4) or when
//     IOTSEC_BENCH_LAX_PERF is set (CI shared runners); the measured
//     ratio is recorded in the JSON either way.
//
//   * Oversubscription floor: the largest shard count (8, more shards
//     than cores on small hosts) must keep >= 0.2x the 1-shard packets/sec
//     on the largest cell, in every mode. Barrier waiters that spin while
//     peers need their core collapse this ratio.
//
// The largest cell runs kGateRuns times per shard count (interleaved
// across shard counts) and both throughput gates compare median pps, so
// one scheduler hiccup cannot decide a verdict. Every run must match the
// cell's reference digest with zero late posts, and every run is
// recorded in the JSON.
//
// IOTSEC_BENCH_SCALE_SMALL trims the sweep to {1k, 10k} devices for CI.
//
// A second cell builds fleets on the real core::Deployment: N cameras
// under the Monitor posture (one µmbox and two diversion entries each,
// on one edge switch), kGateRuns builds per size, timing Start() per
// device. Its gate is HARD, never relaxed by IOTSEC_BENCH_LAX_PERF:
//
//   * Fleet-build linearity: the median per-device Start() time at the
//     largest size must stay within 2x the median at 1k devices. A
//     per-device cost that grows with the fleet (an edge-table mutation
//     that shifts every entry, say) breaks it long before 32k.
//
// Sizes: {1k, 8k, 32k} devices, {1k, 8k} under IOTSEC_BENCH_SCALE_SMALL.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/deployment.h"
#include "core/postures.h"
#include "core/sharded_fleet.h"
#include "net/packet.h"

using namespace iotsec;

namespace {

struct Cell {
  int devices = 0;
  int packets_per_device = 0;
};

struct Row {
  int devices = 0;
  int shards = 0;
  int run = 0;  // repetition index within the cell
  core::FleetResult r;
};

constexpr int kGateRuns = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct BuildRow {
  int devices = 0;
  int run = 0;
  double start_seconds = 0.0;
  double start_us_per_device = 0.0;
  std::uint64_t umbox_launches = 0;
  std::size_t flow_entries = 0;
  bool guarded = false;  // every camera launched under Monitor
};

/// Builds `devices` Monitor-posture cameras on a real Deployment and
/// times its Start().
BuildRow BuildMonitorFleet(int devices, int run) {
  core::DeploymentOptions opts;
  opts.cluster_hosts = 1;
  opts.host_capacity = devices;
  core::Deployment dep(opts);
  for (int i = 0; i < devices; ++i) {
    dep.AddCamera("cam-" + std::to_string(i));
  }
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));

  const auto t0 = std::chrono::steady_clock::now();
  dep.Start();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  BuildRow row;
  row.devices = devices;
  row.run = run;
  row.start_seconds = seconds;
  row.start_us_per_device = seconds * 1e6 / devices;
  const auto& stats = dep.controller().stats();
  row.umbox_launches = stats.umbox_launches;
  row.flow_entries = dep.edge().flow_table().Size();
  row.guarded = stats.umbox_launches == static_cast<std::uint64_t>(devices) &&
                stats.enforcement_failures == 0 &&
                row.flow_entries >= 2 * static_cast<std::size_t>(devices);
  return row;
}

}  // namespace

int main() {
  net::SetPacketTracing(false);

  const bool small = std::getenv("IOTSEC_BENCH_SCALE_SMALL") != nullptr;
  const bool lax_perf = std::getenv("IOTSEC_BENCH_LAX_PERF") != nullptr;
  const unsigned cores = std::thread::hardware_concurrency();

  std::vector<Cell> cells;
  if (small) {
    cells = {{1000, 4}, {10000, 4}};
  } else {
    // The 1M cell sends fewer packets per device: it demonstrates memory
    // and population scale, the 100k cell carries the throughput gate.
    cells = {{1000, 4}, {100000, 4}, {1000000, 2}};
  }
  const std::vector<int> shard_counts = {1, 2, 4, 8};

  std::vector<Row> rows;
  bool deterministic = true;
  bool no_late_posts = true;

  const int gate_devices = cells.back().devices;
  for (const Cell& cell : cells) {
    std::printf("== %d devices ==\n", cell.devices);
    const int runs = cell.devices == gate_devices ? kGateRuns : 1;
    bool have_reference = false;
    std::uint64_t reference_digest = 0;
    std::uint64_t reference_delivered = 0;
    for (int run = 0; run < runs; ++run) {
      for (const int shards : shard_counts) {
        core::FleetOptions opt;
        opt.devices = cell.devices;
        opt.shards = shards;
        opt.packets_per_device = cell.packets_per_device;
        core::FleetResult r;
        {
          core::ShardedFleet fleet(opt);
          r = fleet.Run();
        }
        rows.push_back({cell.devices, shards, run, r});

        if (!have_reference) {
          have_reference = true;
          reference_digest = r.digest;
          reference_delivered = r.delivered;
        } else if (r.digest != reference_digest ||
                   r.delivered != reference_delivered) {
          deterministic = false;
          std::printf("!! DETERMINISM VIOLATION at %d devices / %d shards "
                      "(run %d): digest %s vs reference %s (delivered %llu "
                      "vs %llu)\n",
                      cell.devices, shards, run, Hex(r.digest).c_str(),
                      Hex(reference_digest).c_str(),
                      static_cast<unsigned long long>(r.delivered),
                      static_cast<unsigned long long>(reference_delivered));
        }
        if (r.late_posts != 0) no_late_posts = false;

        std::printf("  shards=%d run=%d  processed=%9llu  delivered=%9llu  "
                    "wall=%6.2fs  pps=%10.0f  cross=%llu  digest=%s\n",
                    shards, run, static_cast<unsigned long long>(r.processed),
                    static_cast<unsigned long long>(r.delivered),
                    r.wall_seconds, r.packets_per_second,
                    static_cast<unsigned long long>(r.cross_shard_events),
                    Hex(r.digest).c_str());
      }
    }
  }

  // Fleet build on the real Deployment, kGateRuns builds per size.
  const std::vector<int> build_sizes =
      small ? std::vector<int>{1000, 8000}
            : std::vector<int>{1000, 8000, 32000};
  std::vector<BuildRow> builds;
  bool all_guarded = true;
  std::printf("== fleet build: Monitor cameras on core::Deployment ==\n");
  for (const int devices : build_sizes) {
    for (int run = 0; run < kGateRuns; ++run) {
      builds.push_back(BuildMonitorFleet(devices, run));
      const BuildRow& b = builds.back();
      if (!b.guarded) all_guarded = false;
      std::printf("  devices=%6d run=%d  start=%8.2f ms  per-device=%7.2f us  "
                  "launches=%llu  flow entries=%zu%s\n",
                  devices, run, b.start_seconds * 1e3, b.start_us_per_device,
                  static_cast<unsigned long long>(b.umbox_launches),
                  b.flow_entries, b.guarded ? "" : "  !! NOT GUARDED");
    }
  }
  const auto median_build_us = [&](int devices) {
    std::vector<double> us;
    for (const BuildRow& b : builds) {
      if (b.devices == devices) us.push_back(b.start_us_per_device);
    }
    return Median(std::move(us));
  };
  constexpr double kMaxBuildGrowth = 2.0;
  const int build_largest = build_sizes.back();
  const double build_us_1k = median_build_us(build_sizes.front());
  const double build_us_largest = median_build_us(build_largest);
  const double build_growth =
      build_us_1k > 0 ? build_us_largest / build_us_1k : 0.0;
  const bool build_linear = build_growth <= kMaxBuildGrowth;

  // Throughput gates on the largest cell, median pps over its runs:
  // 4 shards vs 1, and the largest shard count vs 1.
  const int max_shards = shard_counts.back();
  const auto median_pps = [&](int shards) {
    std::vector<double> pps;
    for (const Row& row : rows) {
      if (row.devices == gate_devices && row.shards == shards) {
        pps.push_back(row.r.packets_per_second);
      }
    }
    return Median(std::move(pps));
  };
  const double pps1 = median_pps(1);
  const double pps4 = median_pps(4);
  const double pps_max = median_pps(max_shards);
  const double speedup = pps1 > 0 ? pps4 / pps1 : 0.0;
  const double speedup_max = pps1 > 0 ? pps_max / pps1 : 0.0;
  const bool can_parallelize = cores >= 4;
  const bool strict_perf = can_parallelize && !lax_perf;
  // Lax floor: the sharded engine must at least not collapse (barrier
  // overhead bounded) even where it cannot win.
  constexpr double kCollapseFloor = 0.2;
  const double required = strict_perf ? 2.5 : kCollapseFloor;
  const bool oversub_pass = speedup_max >= kCollapseFloor;
  const bool perf_pass = speedup >= required && oversub_pass;
  const bool pass = deterministic && no_late_posts && perf_pass &&
                    all_guarded && build_linear;

  if (FILE* json = std::fopen("BENCH_scale.json", "w")) {
    bench::JsonWriter w(json);
    w.BeginObject();
    w.Key("cells");
    w.BeginArray();
    for (const Row& row : rows) {
      w.BeginObject();
      w.Field("devices", row.devices);
      w.Field("shards", row.shards);
      w.Field("run", row.run);
      w.Field("injected", row.r.injected);
      w.Field("processed", row.r.processed);
      w.Field("delivered", row.r.delivered);
      w.Field("cross_shard_events", row.r.cross_shard_events);
      w.Field("late_posts", row.r.late_posts);
      w.Field("foreign_releases", row.r.foreign_releases);
      w.Field("wall_seconds", row.r.wall_seconds, 3);
      w.Field("packets_per_second", row.r.packets_per_second, 0);
      w.Key("digest");
      w.Value(Hex(row.r.digest));
      w.EndObject();
    }
    w.EndArray();
    w.Key("fleet_build");
    w.BeginArray();
    for (const BuildRow& b : builds) {
      w.BeginObject();
      w.Field("devices", b.devices);
      w.Field("run", b.run);
      w.Field("start_seconds", b.start_seconds, 4);
      w.Field("start_us_per_device", b.start_us_per_device, 3);
      w.Field("umbox_launches", b.umbox_launches);
      w.Field("flow_entries", static_cast<std::uint64_t>(b.flow_entries));
      w.Field("guarded", b.guarded);
      w.EndObject();
    }
    w.EndArray();
    w.Key("acceptance");
    w.BeginObject();
    w.Field("gate_devices", gate_devices);
    w.Field("gate_runs", kGateRuns);
    w.Field("median_pps_1", pps1, 0);
    w.Field("median_pps_4", pps4, 0);
    w.Field("median_pps_max", pps_max, 0);
    w.Field("speedup_4_vs_1", speedup, 2);
    w.Field("required_speedup", required, 1);
    w.Field("max_shards", max_shards);
    w.Field("speedup_max_vs_1", speedup_max, 2);
    w.Field("required_speedup_max_vs_1", kCollapseFloor, 1);
    w.Field("oversubscription_pass", oversub_pass);
    w.Field("hardware_concurrency", static_cast<int>(cores));
    w.Field("lax_perf", lax_perf);
    w.Field("strict_perf", strict_perf);
    w.Field("deterministic", deterministic);
    w.Field("no_late_posts", no_late_posts);
    w.Field("perf_pass", perf_pass);
    w.Field("build_median_us_per_device_1k", build_us_1k, 3);
    w.Field("build_largest_devices", build_largest);
    w.Field("build_median_us_per_device_largest", build_us_largest, 3);
    w.Field("build_growth", build_growth, 2);
    w.Field("build_max_growth", kMaxBuildGrowth, 1);
    w.Field("build_all_guarded", all_guarded);
    w.Field("build_linear", build_linear);
    w.Field("pass", pass);
    w.EndObject();
    w.EndObject();
    std::fclose(json);
    std::printf("\nwrote BENCH_scale.json\n");
  }

  std::printf("median of %d runs, speedup 4v1 @%dk devices: %.2fx "
              "(need >= %.1fx%s)  "
              "%dv1: %.2fx (need >= %.1fx)  "
              "deterministic: %s  late posts: %s\n",
              kGateRuns, gate_devices / 1000, speedup, required,
              strict_perf ? "" : ", lax", max_shards, speedup_max,
              kCollapseFloor, deterministic ? "yes" : "NO",
              no_late_posts ? "none" : "SOME");
  std::printf("fleet build per-device Start(): %.2f us @1k, %.2f us @%dk "
              "(%.2fx, need <= %.1fx)  guarded: %s\n",
              build_us_1k, build_us_largest, build_largest / 1000,
              build_growth, kMaxBuildGrowth, all_guarded ? "yes" : "NO");
  return pass ? 0 : 1;
}
