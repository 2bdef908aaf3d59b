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
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
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
  const bool pass = deterministic && no_late_posts && perf_pass;

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
  return pass ? 0 : 1;
}
