// DPI engine benchmark: dense Aho-Corasick DFA vs the seed node-based
// automaton, full RuleSet::Evaluate throughput, compile-once ruleset
// deployment across same-SKU µmboxes, and the batched vs per-insert load
// path — swept over ruleset size × payload size × µmbox count.
//
// The paper's data plane forces every guarded device's traffic through a
// per-device µmbox chain whose dominant cost is signature matching; the
// crowd repository pushes one SKU ruleset to thousands of identical
// µmboxes. This bench prices both: payload-scan throughput (MB/s) and
// ruleset deployment cost (compiles per push).
//
// Emits machine-readable BENCH_dpi.json. Exit code enforces:
//   - the dense DFA is not slower than the seed automaton on any row,
//     and reaches the >= 3x acceptance bar on the 1k-rule ruleset;
//   - deploying one ruleset to M µmboxes performs exactly 1 compile
//     (verified via the process-wide cache counters);
//   - the batched load path beats per-insert recompilation.
//
// The counter assertions (compile-once, batched-load compile counts) are
// always hard. The wall-clock gates relax to a generous margin when
// IOTSEC_BENCH_LAX_PERF is set — CI sets it because shared virtualized
// runners have enough timing noise to intermittently fail an honest 3x
// gate; the measured ratios are still written to BENCH_dpi.json either
// way. Run without the env var (the default, used locally) for the full
// acceptance bar.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "dataplane/elements.h"
#include "net/address.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "proto/transport.h"
#include "sig/aho_corasick.h"
#include "sig/compiled_ruleset.h"
#include "sig/dense_dfa.h"
#include "sig/ruleset.h"

using namespace iotsec;

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A ruleset-sized workload: `n` content rules with random 6-14 byte
/// patterns over a narrow 5-letter alphabet, and a payload drawn from the
/// same alphabet with a few planted matches. The narrow alphabet models
/// what real content rulesets look like to the automaton — thousands of
/// signatures sharing stems ("GET /", "/cgi-bin/", "admin") — so the scan
/// continually wanders states at depth 3-6 instead of parking on the root.
/// That wandering is exactly what prices the automaton's memory layout:
/// the seed pays a ~1 KB node per visited state, the dense DFA a few
/// bytes.
struct Workload {
  std::vector<sig::Rule> rules;
  std::vector<std::string> patterns;
  Bytes payload;
  Bytes frame_bytes;
  proto::ParsedFrame frame;

  Workload(std::size_t n_rules, std::size_t payload_len) {
    Rng rng(n_rules * 7919 + payload_len);
    for (std::size_t i = 0; i < n_rules; ++i) {
      const auto len = 6 + rng.NextBelow(9);
      std::string p;
      for (std::size_t j = 0; j < len; ++j) {
        p += static_cast<char>('a' + rng.NextBelow(5));
      }
      sig::Rule rule;
      rule.action = sig::RuleAction::kAlert;
      rule.proto = sig::RuleProto::kTcp;
      rule.sid = static_cast<std::uint32_t>(10000 + i);
      rule.msg = "dpi-bench";
      rule.contents.push_back(
          sig::ContentPattern{p, /*nocase=*/rng.NextBool(0.25)});
      rules.push_back(std::move(rule));
      patterns.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < payload_len; ++i) {
      payload.push_back(static_cast<std::uint8_t>('a' + rng.NextBelow(5)));
    }
    // Plant two real matches so the hit path is exercised.
    for (int k = 0; k < 2 && !patterns.empty(); ++k) {
      const auto& p = patterns[rng.NextBelow(patterns.size())];
      if (p.size() >= payload.size()) continue;
      const auto off = rng.NextBelow(payload.size() - p.size());
      std::copy(p.begin(), p.end(), payload.begin() + static_cast<long>(off));
    }
    frame_bytes = proto::BuildTcpFrame(
        net::MacAddress::FromId(1), net::MacAddress::FromId(2),
        net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2),
        proto::TcpHeader{.src_port = 4444, .dst_port = 80,
                         .flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck},
        payload);
    frame = *proto::ParseFrame(frame_bytes);
  }
};

/// The seed engine's evaluation loop, verbatim semantics: node-based
/// automaton, a fresh std::vector<bool> per call, and an O(n_rules) rule
/// sweep per packet. This is the "before" in every comparison.
struct SeedEngine {
  sig::AhoCorasick automaton;
  std::vector<std::pair<std::size_t, std::size_t>> pattern_owner;
  const std::vector<sig::Rule>* rules = nullptr;

  explicit SeedEngine(const std::vector<sig::Rule>& rs) : rules(&rs) {
    for (std::size_t ri = 0; ri < rs.size(); ++ri) {
      for (std::size_t ci = 0; ci < rs[ri].contents.size(); ++ci) {
        const int pid = automaton.AddPattern(rs[ri].contents[ci].bytes,
                                             rs[ri].contents[ci].nocase);
        if (pid >= 0) pattern_owner.emplace_back(ri, ci);
      }
    }
    automaton.Build();
  }

  sig::RuleVerdict Evaluate(const proto::ParsedFrame& frame) const {
    std::vector<bool> seen(pattern_owner.size(), false);
    if (!pattern_owner.empty() && !frame.payload.empty()) {
      automaton.MarkMatches(frame.payload, seen);
    }
    std::vector<std::size_t> content_hits(rules->size(), 0);
    for (std::size_t pid = 0; pid < seen.size(); ++pid) {
      if (seen[pid]) ++content_hits[pattern_owner[pid].first];
    }
    sig::RuleVerdict verdict;
    for (std::size_t ri = 0; ri < rules->size(); ++ri) {
      const sig::Rule& rule = (*rules)[ri];
      if (content_hits[ri] != rule.contents.size()) continue;
      if (!rule.HeaderMatches(frame)) continue;
      verdict.matched_sids.push_back(rule.sid);
    }
    return verdict;
  }
};

struct ScanRow {
  std::size_t n_rules = 0;
  std::size_t payload_len = 0;
  double seed_scan_mbps = 0;
  double dense_scan_mbps = 0;
  double scan_speedup = 0;
  double seed_eval_pps = 0;
  double dense_eval_pps = 0;
  double eval_speedup = 0;
  std::size_t states = 0;
  std::size_t dense_states = 0;
  std::size_t seed_mem_bytes = 0;
  std::size_t dense_mem_bytes = 0;
};

/// Bytes/sec pushing `payload` through MarkMatches-style scanning.
template <typename ScanFn>
double MeasureScanRate(const Bytes& payload, ScanFn&& scan) {
  // Calibrate to ~0.35s per measurement regardless of engine speed.
  std::size_t iters = 512;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) scan();
    const double secs = Seconds(start, std::chrono::steady_clock::now());
    if (secs >= 0.35 || iters >= (1u << 26)) {
      return static_cast<double>(iters) *
             static_cast<double>(payload.size()) / secs;
    }
    iters *= 4;
  }
}

template <typename EvalFn>
double MeasureEvalRate(EvalFn&& eval) {
  std::size_t iters = 512;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) eval();
    const double secs = Seconds(start, std::chrono::steady_clock::now());
    if (secs >= 0.35 || iters >= (1u << 26)) {
      return static_cast<double>(iters) / secs;
    }
    iters *= 4;
  }
}

ScanRow RunScanRow(std::size_t n_rules, std::size_t payload_len) {
  Workload w(n_rules, payload_len);
  ScanRow row;
  row.n_rules = n_rules;
  row.payload_len = payload_len;

  SeedEngine seed(w.rules);
  const sig::DenseDfa dense = sig::DenseDfa::Compile(seed.automaton);
  row.states = seed.automaton.NodeCount();
  row.dense_states = dense.DenseStateCount();
  // Seed node footprint: 256-wide int32 next array + fail/depth + the
  // output vector header per node (per-node heap blocks not counted).
  row.seed_mem_bytes =
      seed.automaton.NodeCount() * (256 * 4 + 8 + sizeof(std::vector<int>));
  row.dense_mem_bytes = dense.MemoryBytes();

  std::vector<bool> seed_seen(seed.pattern_owner.size());
  row.seed_scan_mbps = MeasureScanRate(w.payload, [&] {
    std::fill(seed_seen.begin(), seed_seen.end(), false);
    seed.automaton.MarkMatches(w.payload, seed_seen);
  });
  std::vector<std::uint32_t> epoch_seen(seed.pattern_owner.size(), 0);
  std::uint32_t epoch = 0;
  std::size_t sink = 0;
  row.dense_scan_mbps = MeasureScanRate(w.payload, [&] {
    ++epoch;
    dense.MarkMatchesEpoch(w.payload, epoch_seen, epoch,
                           [&](std::int32_t) { ++sink; });
  });
  row.scan_speedup = row.dense_scan_mbps / row.seed_scan_mbps;

  row.seed_eval_pps =
      MeasureEvalRate([&] { (void)seed.Evaluate(w.frame); });
  sig::RuleSet rs(w.rules);
  rs.EnsureCompiled();
  row.dense_eval_pps = MeasureEvalRate([&] { (void)rs.Evaluate(w.frame); });
  row.eval_speedup = row.dense_eval_pps / row.seed_eval_pps;

  std::printf(
      "scan  rules=%5zu payload=%5zu  seed %8.1f MB/s  dense %8.1f MB/s "
      "(%.2fx)  eval %9.0f -> %9.0f pps (%.2fx)  mem %zu -> %zu KB\n",
      n_rules, payload_len, row.seed_scan_mbps / 1e6,
      row.dense_scan_mbps / 1e6, row.scan_speedup, row.seed_eval_pps,
      row.dense_eval_pps, row.eval_speedup, row.seed_mem_bytes / 1024,
      row.dense_mem_bytes / 1024);
  return row;
}

struct ReconfigRow {
  std::size_t n_rules = 0;
  std::size_t umboxes = 0;
  std::uint64_t compiles = 0;
  std::uint64_t cache_hits = 0;
  double total_ms = 0;
  bool compile_once = false;
};

/// Deploys one SKU ruleset to M µmboxes: configures M SignatureMatcher
/// elements from the ruleset's text, as each µmbox launch does, and
/// counts actual automaton compiles.
ReconfigRow RunReconfigRow(std::size_t n_rules, std::size_t umboxes) {
  Workload w(n_rules, 256);
  const dataplane::ConfigMap config{
      {"rules", sig::CompiledRuleset::CanonicalText(w.rules)}};
  std::vector<std::unique_ptr<dataplane::SignatureMatcher>> fleet;
  for (std::size_t i = 0; i < umboxes; ++i) {
    fleet.push_back(std::make_unique<dataplane::SignatureMatcher>(
        "sig" + std::to_string(i), "SignatureMatcher"));
  }
  sig::CompiledRulesetCache::Instance().Clear();
  const std::uint64_t compiles_before = obs::M().sig_compiles->Value();
  const std::uint64_t hits_before = obs::M().sig_cache_hits->Value();

  bool configured = true;
  const auto start = std::chrono::steady_clock::now();
  for (auto& matcher : fleet) {
    std::string error;
    if (!matcher->Configure(config, &error)) {
      std::fprintf(stderr, "push: %s\n", error.c_str());
      configured = false;
    }
  }
  const auto stop = std::chrono::steady_clock::now();

  ReconfigRow row;
  row.n_rules = n_rules;
  row.umboxes = umboxes;
  row.compiles = obs::M().sig_compiles->Value() - compiles_before;
  row.cache_hits = obs::M().sig_cache_hits->Value() - hits_before;
  row.total_ms = Seconds(start, stop) * 1e3;
  row.compile_once =
      configured && row.compiles == 1 && row.cache_hits == umboxes - 1;
  std::printf(
      "push  rules=%5zu umboxes=%3zu  compiles=%llu hits=%llu  %.2f ms  %s\n",
      n_rules, umboxes, static_cast<unsigned long long>(row.compiles),
      static_cast<unsigned long long>(row.cache_hits), row.total_ms,
      row.compile_once ? "compile-once OK" : "COMPILE-ONCE VIOLATED");
  return row;
}

struct LoadResult {
  std::size_t n_rules = 0;
  double per_insert_ms = 0;
  double batched_ms = 0;
  double speedup = 0;
};

/// The seed's O(n²) load path (full recompile per Add) vs the batched
/// deferred-compile path.
LoadResult RunLoad(std::size_t n_rules) {
  Workload w(n_rules, 64);
  LoadResult r;
  r.n_rules = n_rules;

  sig::CompiledRulesetCache::Instance().Clear();
  auto start = std::chrono::steady_clock::now();
  {
    sig::RuleSet rs;
    for (const auto& rule : w.rules) {
      rs.Add(rule);
      rs.EnsureCompiled();  // seed behavior: Add() recompiled every time
    }
  }
  r.per_insert_ms = Seconds(start, std::chrono::steady_clock::now()) * 1e3;

  sig::CompiledRulesetCache::Instance().Clear();
  start = std::chrono::steady_clock::now();
  {
    sig::RuleSet rs;
    rs.Add(w.rules);
    rs.EnsureCompiled();
  }
  r.batched_ms = Seconds(start, std::chrono::steady_clock::now()) * 1e3;
  r.speedup = r.per_insert_ms / r.batched_ms;
  std::printf("load  rules=%5zu  per-insert %.1f ms  batched %.1f ms (%.0fx)\n",
              n_rules, r.per_insert_ms, r.batched_ms, r.speedup);
  return r;
}

}  // namespace

int main() {
  std::printf("DPI engine bench: dense DFA vs seed automaton\n\n");

  const std::size_t rule_sizes[] = {16, 128, 1024};
  const std::size_t payload_sizes[] = {64, 512, 1448};
  std::vector<ScanRow> scan_rows;
  for (const auto n : rule_sizes) {
    for (const auto p : payload_sizes) {
      scan_rows.push_back(RunScanRow(n, p));
    }
  }
  std::printf("\n");

  std::vector<ReconfigRow> reconfig_rows;
  for (const auto m : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    reconfig_rows.push_back(RunReconfigRow(1024, m));
  }
  std::printf("\n");
  const LoadResult load = RunLoad(1024);

  // Acceptance: the 1k-rule MTU row must clear the scan-throughput bar,
  // no row may regress past the noise floor (tiny L1-resident rulesets
  // are parity; the win is the 1k-rule working set), and deployment must
  // be compile-once. The wall-clock thresholds relax under
  // IOTSEC_BENCH_LAX_PERF (set in CI, where shared-runner timing noise
  // would otherwise flake the gate); the counter assertions do not.
  const bool lax_perf = std::getenv("IOTSEC_BENCH_LAX_PERF") != nullptr;
  const double required_1k = lax_perf ? 1.5 : 3.0;
  const double row_floor = lax_perf ? 0.5 : 0.9;
  double speedup_1k = 0;
  bool any_slower = false;
  for (const auto& row : scan_rows) {
    if (row.scan_speedup < row_floor || row.eval_speedup < row_floor) {
      any_slower = true;
    }
    if (row.n_rules == 1024 && row.payload_len == 1448) {
      speedup_1k = row.scan_speedup;
    }
  }
  bool compile_once = true;
  for (const auto& row : reconfig_rows) {
    compile_once = compile_once && row.compile_once;
  }
  const bool pass = !any_slower && speedup_1k >= required_1k &&
                    compile_once && load.speedup > 1.0;

  FILE* json = std::fopen("BENCH_dpi.json", "w");
  if (json != nullptr) {
    bench::JsonWriter w(json);
    w.BeginObject();
    w.Key("scan");
    w.BeginArray();
    for (const auto& r : scan_rows) {
      w.BeginObject();
      w.Field("rules", r.n_rules);
      w.Field("payload_bytes", r.payload_len);
      w.Field("seed_scan_mbps", r.seed_scan_mbps / 1e6, 1);
      w.Field("dense_scan_mbps", r.dense_scan_mbps / 1e6, 1);
      w.Field("scan_speedup", r.scan_speedup, 2);
      w.Field("seed_eval_pps", r.seed_eval_pps, 0);
      w.Field("dense_eval_pps", r.dense_eval_pps, 0);
      w.Field("eval_speedup", r.eval_speedup, 2);
      w.Field("states", r.states);
      w.Field("dense_states", r.dense_states);
      w.Field("seed_mem_bytes", r.seed_mem_bytes);
      w.Field("dense_mem_bytes", r.dense_mem_bytes);
      w.EndObject();
    }
    w.EndArray();
    w.Key("reconfig");
    w.BeginArray();
    for (const auto& r : reconfig_rows) {
      w.BeginObject();
      w.Field("rules", r.n_rules);
      w.Field("umboxes", r.umboxes);
      w.Field("compiles", r.compiles);
      w.Field("cache_hits", r.cache_hits);
      w.Field("total_ms", r.total_ms, 3);
      w.Field("compile_once", r.compile_once);
      w.EndObject();
    }
    w.EndArray();
    w.Key("load");
    w.BeginObject();
    w.Field("rules", load.n_rules);
    w.Field("per_insert_ms", load.per_insert_ms, 1);
    w.Field("batched_ms", load.batched_ms, 1);
    w.Field("speedup", load.speedup, 1);
    w.EndObject();
    w.Key("acceptance");
    w.BeginObject();
    w.Field("dense_scan_speedup_1k", speedup_1k, 2);
    w.Field("required_speedup_1k", required_1k, 1);
    w.Field("lax_perf", lax_perf);
    w.Field("compile_once", compile_once);
    w.Field("pass", pass);
    w.EndObject();
    w.EndObject();
    std::fclose(json);
    std::printf("\nwrote BENCH_dpi.json\n");
  }

  std::printf("dense scan speedup @1k rules: %.2fx (need >= %.1fx%s)  "
              "compile-once: %s  load speedup: %.0fx\n",
              speedup_1k, required_1k, lax_perf ? ", lax" : "",
              compile_once ? "yes" : "NO", load.speedup);
  return pass ? 0 : 1;
}
