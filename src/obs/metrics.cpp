#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"

namespace iotsec::obs {

void SetEnabled(bool enabled) {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank on the merged bucket counts.
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Clamp into the observed range: unit-width buckets are exact and
      // coarse buckets report their upper bound, never past the max.
      return std::min(HistogramLayout::UpperBound(i) - 1, max);
    }
  }
  return max;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(Layout::kBucketCount, 0);
  std::uint64_t min = ~std::uint64_t{0};
  for (const auto& s : shards_) {
    for (std::size_t i = 0; i < Layout::kBucketCount; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
  }
  for (const auto b : snap.buckets) snap.count += b;
  snap.min = snap.count == 0 ? 0 : min;
  return snap;
}

void Histogram::Reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, g] : gauges_) g->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

namespace {

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void AppendF64(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

/// A valid Prometheus metric name, [a-zA-Z_:][a-zA-Z0-9_:]*: every other
/// byte becomes '_' ("a.b.c" -> "a_b_c"), and a leading digit (or an
/// empty name) gets a '_' prefix. A quote or line feed in a registered
/// name would otherwise break the exposition format.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name.front() >= '0' && name.front() <= '9')) {
    out += '_';
  }
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += keep ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  const RegistrySnapshot snap = Snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": ";
    AppendU64(out, v);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": ";
    AppendI64(out, v);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": {\"count\": ";
    AppendU64(out, h.count);
    out += ", \"sum\": ";
    AppendU64(out, h.sum);
    out += ", \"min\": ";
    AppendU64(out, h.min);
    out += ", \"max\": ";
    AppendU64(out, h.max);
    out += ", \"mean\": ";
    AppendF64(out, h.Mean());
    out += ", \"p50\": ";
    AppendU64(out, h.Percentile(50));
    out += ", \"p90\": ";
    AppendU64(out, h.Percentile(90));
    out += ", \"p99\": ";
    AppendU64(out, h.Percentile(99));
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  const RegistrySnapshot snap = Snapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " counter\n" + p + " ";
    AppendU64(out, v);
    out += '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n" + p + " ";
    AppendI64(out, v);
    out += '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " summary\n";
    for (const double q : {0.5, 0.9, 0.99}) {
      out += p + "{quantile=\"";
      AppendF64(out, q);
      out += "\"} ";
      AppendU64(out, h.Percentile(q * 100.0));
      out += '\n';
    }
    out += p + "_sum ";
    AppendU64(out, h.sum);
    out += '\n';
    out += p + "_count ";
    AppendU64(out, h.count);
    out += '\n';
  }
  return out;
}

}  // namespace iotsec::obs
