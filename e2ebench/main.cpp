// One run of one workload: builds the deployment (several times, to time
// set-up), drives the workload's seeded schedule, judges every outcome and
// prints one JSON object on stdout. run.py starts one process per run so
// that process-wide state (metrics registry, flight recorder, packet pool,
// compiled-ruleset cache) never carries from one run into the next.
//
//   e2ebench --workload <guarded_mix|direct_small|posture_churn>
//            --seed <n> [--trace 0|1]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.h"
#include "layers.h"
#include "net/packet.h"
#include "obs/span.h"
#include "workload.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define E2EBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define E2EBENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace e2ebench;

// Deployments built per run to time set-up, each from scratch.
constexpr int kSetups = 5;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "[--trace 0|1]\n",
               why);
  std::exit(2);
}

// Timings from unoptimized or instrumented code say nothing about the
// system; refuse to produce them.
void RefuseUntimeableBuild() {
  const std::string build_type = E2EBENCH_BUILD_TYPE;
  bool untimeable = build_type == "Debug";
#ifndef __OPTIMIZE__
  untimeable = true;
#endif
#ifdef E2EBENCH_SANITIZED
  untimeable = true;
#endif
  if (untimeable) {
    std::fprintf(stderr,
                 "e2ebench: refusing to time a Debug, unoptimized or "
                 "sanitizer build (CMAKE_BUILD_TYPE=%s)\n",
                 build_type.c_str());
    std::exit(3);
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--trace") {
      traced = value == "1";
    } else {
      Usage(("unknown argument " + key).c_str());
    }
  }
  WorkloadKind kind{};
  if (!ParseWorkload(workload, &kind)) Usage("unknown or missing --workload");
  if (!have_seed) Usage("missing --seed");
  RefuseUntimeableBuild();

  // Per-hop packet traces are test machinery; the benches run without.
  iotsec::net::SetPacketTracing(false);
  iotsec::SetLogLevel(iotsec::LogLevel::kError);

  const Schedule schedule = MakeSchedule(kind, seed);
  // Set-up is timed several times from scratch (each previous deployment
  // destroyed first, so every build recompiles the ruleset); every time is
  // reported and the last build carries the traffic.
  std::vector<double> setup_s;
  Fleet fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.dep.reset();
    fleet.devices.clear();
    const auto start = std::chrono::steady_clock::now();
    fleet = BuildFleet(kind);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }

  const LayerBaseline baseline = CaptureBaseline(fleet);
  if (traced) iotsec::obs::SetSampling(true);
  const DriveResult drive = Drive(fleet, schedule);
  iotsec::obs::SetSampling(false);
  const Metrics layers =
      traced ? MeasureLayers(fleet, schedule, drive, baseline) : Metrics{};

  char digest[24];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(drive.digest));
  std::string out = "{";
  auto field = [&out](const std::string& key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + value;
  };
  field("workload", JsonString(workload));
  field("seed", std::to_string(seed));
  field("traced", traced ? "true" : "false");
  field("build_type", JsonString(E2EBENCH_BUILD_TYPE));
  field("compiler", JsonString(E2EBENCH_COMPILER));
  field("digest", JsonString(digest));
  field("attempted", std::to_string(drive.attempted));
  field("failed", std::to_string(drive.failed));
  std::string errors = "[";
  for (const std::string& e : drive.errors) {
    errors += (errors.size() > 1 ? ", " : "") + JsonString(e);
  }
  field("errors", errors + "]");
  field("exchanges", std::to_string(drive.exchanges));
  field("transitions", std::to_string(drive.transitions));
  field("wall_s", Num(drive.wall_s));
  std::string setups_json = "[";
  for (const double s : setup_s) {
    setups_json += (setups_json.size() > 1 ? ", " : "") + Num(s);
  }
  field("setup_s", setups_json + "]");
  field("exchanges_per_s",
        Num(static_cast<double>(drive.exchanges) / drive.wall_s));
  field("transitions_per_s",
        Num(static_cast<double>(drive.transitions) / drive.wall_s));
  field("rtt_samples", std::to_string(drive.rtt_us.size()));
  field("rtt_p50_us", Num(Percentile(drive.rtt_us, 50)));
  field("rtt_p99_us", Num(Percentile(drive.rtt_us, 99)));
  field("react_samples", std::to_string(drive.react_us.size()));
  field("react_p50_us", Num(Percentile(drive.react_us, 50)));
  field("react_p99_us", Num(Percentile(drive.react_us, 99)));
  field("peak_rss_mb", Num(PeakRssMb()));
  std::string layer_json = "{";
  for (const auto& [name, value] : layers) {
    layer_json += (layer_json.size() > 1 ? ", " : "") + JsonString(name) +
                  ": " + Num(value);
  }
  field("layers", layer_json + "}");
  std::printf("%s}\n", out.c_str());
  return 0;
}
