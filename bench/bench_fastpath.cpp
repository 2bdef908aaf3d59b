// Fast-path microbenchmark: flow classifier, microflow cache, parse-once
// headers, pooled packets and gated tracing, measured in isolation and end
// to end.
//
// Two acceptance gates:
//   * on a cache-friendly steady-state workload, the full fast path must
//     deliver >= 2x the packets/sec of the pre-change pipeline (first-match
//     scan over the flow table, per-hop parse, fresh allocations,
//     always-on tracing), which the harness rebuilds in bench code;
//   * the tuple-space classifier alone must classify >= 10x faster than
//     that first-match scan at 1024 rules (>= 3x when
//     IOTSEC_BENCH_LAX_PERF is set, for shared CI runners).
//
// Emits machine-readable BENCH_fastpath.json (in the working directory)
// so the perf trajectory is tracked across PRs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fastpath_harness.h"

using namespace iotsec;

namespace {

struct Row {
  std::string name;
  bench::FastPathConfig cfg;
  bench::FastPathResult result;
};

enum class Classify { kScan, kClassifier, kCached };

/// Pure classification cost: lookups/sec against the flow table by the
/// reference scan, the classifier, or the microflow cache in front of
/// the classifier; no packets or event loop involved.
double MeasureLookupRate(std::size_t rules, std::size_t flows, Classify how,
                         double* hit_rate) {
  sdn::FlowTable table;
  for (std::size_t i = 0; i < rules; ++i) {
    sdn::FlowEntry entry;
    entry.priority = 100;
    entry.cookie = i;
    entry.match.ip_dst = net::Ipv4Prefix(
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i & 0xff)),
        32);
    entry.actions.push_back(sdn::FlowAction::Drop());
    table.Install(entry);
  }
  std::vector<Bytes> frames;
  std::vector<proto::ParsedFrame> parsed;
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t rule = f * rules / flows;
    frames.push_back(proto::BuildUdpFrame(
        net::MacAddress::FromId(static_cast<std::uint32_t>(100 + f)),
        net::MacAddress::FromId(7),
        net::Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(f)),
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(rule >> 8),
                         static_cast<std::uint8_t>(rule & 0xff)),
        static_cast<std::uint16_t>(20000 + f), 80, {}));
  }
  for (const auto& bytes : frames) parsed.push_back(*proto::ParseFrame(bytes));

  sdn::MicroflowCache cache;
  constexpr std::size_t kLookups = 2000000;
  std::size_t matched = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    const auto& frame = parsed[i % parsed.size()];
    const sdn::FlowEntry* entry =
        how == Classify::kScan         ? bench::FirstMatch(table, frame, 0)
        : how == Classify::kClassifier ? table.Lookup(frame, 0, 0)
                                       : table.LookupCached(cache, frame, 0, 0);
    matched += entry != nullptr ? 1 : 0;
  }
  const auto stop = std::chrono::steady_clock::now();
  if (matched != kLookups) std::printf("!! unexpected lookup misses\n");
  if (hit_rate != nullptr) *hit_rate = cache.stats().HitRate();
  return static_cast<double>(kLookups) /
         std::chrono::duration<double>(stop - start).count();
}

/// Parse cost: fresh ParseFrame per hop vs the packet's cached view.
double MeasureParseRate(bool parse_once) {
  const Bytes bytes = proto::BuildUdpFrame(
      net::MacAddress::FromId(1), net::MacAddress::FromId(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1234,
      80, {});
  auto pkt = net::MakePacket(bytes);
  constexpr std::size_t kParses = 2000000;
  std::uint64_t ports = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kParses; ++i) {
    if (parse_once) {
      ports += pkt->Parsed()->DstPort();
    } else {
      ports += proto::ParseFrame(pkt->data())->DstPort();
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  if (ports == 0) std::printf("!! parse produced nothing\n");
  return static_cast<double>(kParses) /
         std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main() {
  std::printf("=== fast path: classifier / microflow cache / parse-once / "
              "pooling ===\n");

  // ---------------- end-to-end switch pipeline A/B matrix.
  const std::size_t kRules = 512;
  const std::size_t kFlows = 64;
  std::vector<Row> rows;
  auto add = [&](std::string name, bool scan, bool cache, bool trace,
                 bool pool) {
    Row row;
    row.name = std::move(name);
    row.cfg.rules = kRules;
    row.cfg.flows = kFlows;
    row.cfg.reference_scan = scan;
    row.cfg.microflow = cache;
    row.cfg.tracing = trace;
    row.cfg.pooling = pool;
    row.result = bench::RunFastPathWorkload(row.cfg);
    rows.push_back(std::move(row));
  };
  // Pre-change path: first-match scan every packet, tracing on, no pooling.
  add("baseline_prechange", /*scan=*/true, /*cache=*/false, /*trace=*/true,
      /*pool=*/false);
  add("classifier_only", /*scan=*/false, /*cache=*/false, /*trace=*/true,
      /*pool=*/false);
  add("cache_only", /*scan=*/false, /*cache=*/true, /*trace=*/true,
      /*pool=*/false);
  add("cache_notrace", /*scan=*/false, /*cache=*/true, /*trace=*/false,
      /*pool=*/false);
  add("fastpath_full", /*scan=*/false, /*cache=*/true, /*trace=*/false,
      /*pool=*/true);

  std::printf("\n-- switch pipeline, %zu rules, %zu-flow working set --\n",
              kRules, kFlows);
  std::printf("%-20s %-12s %-10s %-10s\n", "config", "pkts/sec", "hit rate",
              "speedup");
  const double baseline_pps = rows.front().result.pps;
  for (const auto& row : rows) {
    std::printf("%-20s %-12.0f %-10.3f %.2fx\n", row.name.c_str(),
                row.result.pps, row.result.cache_hit_rate,
                row.result.pps / baseline_pps);
  }
  const double full_speedup = rows.back().result.pps / baseline_pps;

  // ---------------- classification in isolation.
  std::printf("\n-- FlowTable classification only (lookups/s) --\n");
  std::printf("%-8s %-14s %-14s %-14s %-12s %-10s\n", "rules",
              "reference scan", "classifier", "cached", "classifier x",
              "cached x");
  struct LookupRow {
    std::size_t rules;
    double scan, classifier, cached, hit_rate;
  };
  std::vector<LookupRow> lookup_rows;
  for (const std::size_t rules : {64ul, 256ul, 1024ul}) {
    LookupRow lr;
    lr.rules = rules;
    lr.scan = MeasureLookupRate(rules, kFlows, Classify::kScan, nullptr);
    lr.classifier =
        MeasureLookupRate(rules, kFlows, Classify::kClassifier, nullptr);
    lr.cached =
        MeasureLookupRate(rules, kFlows, Classify::kCached, &lr.hit_rate);
    lookup_rows.push_back(lr);
    std::printf("%-8zu %-14.0f %-14.0f %-14.0f %-12.1f %.1f\n", rules,
                lr.scan, lr.classifier, lr.cached, lr.classifier / lr.scan,
                lr.cached / lr.scan);
  }
  // Gate on the largest table, where a scan's O(rules) cost shows most.
  const bool lax_perf = std::getenv("IOTSEC_BENCH_LAX_PERF") != nullptr;
  const double classifier_threshold = lax_perf ? 3.0 : 10.0;
  const double classifier_speedup =
      lookup_rows.back().classifier / lookup_rows.back().scan;
  const bool classifier_ok = classifier_speedup >= classifier_threshold;

  // ---------------- header parsing in isolation.
  std::printf("\n-- header parsing --\n");
  const double parse_fresh = MeasureParseRate(/*parse_once=*/false);
  const double parse_cached = MeasureParseRate(/*parse_once=*/true);
  std::printf("fresh parse  : %.0f frames/s\n", parse_fresh);
  std::printf("cached view  : %.0f frames/s (%.1fx)\n", parse_cached,
              parse_cached / parse_fresh);

  // ---------------- machine-readable output.
  FILE* json = std::fopen("BENCH_fastpath.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"fastpath\",\n");
    std::fprintf(json, "  \"rules\": %zu,\n  \"flows\": %zu,\n", kRules,
                 kFlows);
    std::fprintf(json, "  \"pipeline\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(json,
                   "    {\"config\": \"%s\", \"pps\": %.0f, \"seconds\": "
                   "%.4f, \"cache_hit_rate\": %.4f, \"speedup\": %.3f}%s\n",
                   row.name.c_str(), row.result.pps, row.result.seconds,
                   row.result.cache_hit_rate, row.result.pps / baseline_pps,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"lookup\": [\n");
    for (std::size_t i = 0; i < lookup_rows.size(); ++i) {
      const auto& lr = lookup_rows[i];
      std::fprintf(json,
                   "    {\"rules\": %zu, \"scan_per_sec\": %.0f, "
                   "\"classifier_per_sec\": %.0f, \"cached_per_sec\": "
                   "%.0f, \"classifier_speedup\": %.2f, \"speedup\": "
                   "%.2f, \"cache_hit_rate\": %.4f}%s\n",
                   lr.rules, lr.scan, lr.classifier, lr.cached,
                   lr.classifier / lr.scan, lr.cached / lr.scan, lr.hit_rate,
                   i + 1 < lookup_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"parse\": {\"fresh_per_sec\": %.0f, \"cached_per_sec\": "
                 "%.0f, \"speedup\": %.2f},\n",
                 parse_fresh, parse_cached, parse_cached / parse_fresh);
    std::fprintf(json,
                 "  \"classifier_gate\": {\"rules\": %zu, \"speedup\": "
                 "%.2f, \"threshold\": %.1f, \"lax\": %s},\n",
                 lookup_rows.back().rules, classifier_speedup,
                 classifier_threshold, lax_perf ? "true" : "false");
    std::fprintf(json, "  \"speedup_full_vs_prechange\": %.3f\n}\n",
                 full_speedup);
    std::fclose(json);
    std::printf("\nwrote BENCH_fastpath.json\n");
  }

  std::printf("\nacceptance (fast path >= 2x pre-change pipeline): %s "
              "(%.2fx)\n",
              full_speedup >= 2.0 ? "HOLDS" : "VIOLATED", full_speedup);
  std::printf("acceptance (classifier >= %.0fx reference scan at %zu rules"
              "%s): %s (%.1fx)\n",
              classifier_threshold, lookup_rows.back().rules,
              lax_perf ? ", lax" : "", classifier_ok ? "HOLDS" : "VIOLATED",
              classifier_speedup);
  return full_speedup >= 2.0 && classifier_ok ? 0 : 1;
}
