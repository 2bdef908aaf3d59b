// Shared JSON emitter for the bench harnesses.
//
// Every bench writes a machine-readable BENCH_<name>.json so the perf
// trajectory is tracked across PRs; before this header each bench
// hand-rolled fprintf JSON (comma bookkeeping, bool spelling, escaping)
// and they drifted. JsonWriter is a minimal streaming writer: explicit
// Begin/End for objects and arrays, automatic comma placement, two-space
// indentation — enough structure that a malformed document is a logic
// error at the call site, not a typo in a format string.
//
// Not a general-purpose serializer: no nesting-depth validation beyond
// the comma stack, numbers are printf-formatted, and the output goes to
// a FILE* the caller owns. Keys and strings go through the shared
// JsonEscape (common/strings.h).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"

namespace iotsec::bench {

class JsonWriter {
 public:
  /// Writes to `out` (not owned, not closed). The caller normally opens
  /// "BENCH_<name>.json", checks for nullptr, and closes after.
  explicit JsonWriter(FILE* out) : out_(out) {}

  // ---- containers.
  void BeginObject() { OpenContainer('{'); }
  void EndObject() { CloseContainer('}'); }
  void BeginArray() { OpenContainer('['); }
  void EndArray() { CloseContainer(']'); }

  /// Starts `"key": ` inside an object; follow with a value or
  /// container.
  void Key(const char* key) {
    Separate();
    Indent();
    std::fprintf(out_, "\"%s\": ", JsonEscape(key).c_str());
    pending_value_ = true;
  }

  // ---- values (either after Key() or as array elements).
  void Value(const std::string& s) {
    Prefix();
    std::fprintf(out_, "\"%s\"", JsonEscape(s).c_str());
    Finish();
  }
  void Value(const char* s) { Value(std::string(s)); }
  void Value(bool b) {
    Prefix();
    std::fputs(b ? "true" : "false", out_);
    Finish();
  }
  void Value(double v, int decimals = 3) {
    Prefix();
    std::fprintf(out_, "%.*f", decimals, v);
    Finish();
  }
  void Value(std::uint64_t v) {
    Prefix();
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
    Finish();
  }
  void Value(std::int64_t v) {
    Prefix();
    std::fprintf(out_, "%lld", static_cast<long long>(v));
    Finish();
  }
  void Value(int v) { Value(static_cast<std::int64_t>(v)); }

  /// Key(k); Value(v) in one call.
  template <typename T>
  void Field(const char* key, T v) {
    Key(key);
    Value(v);
  }
  void Field(const char* key, double v, int decimals) {
    Key(key);
    Value(v, decimals);
  }

 private:
  void OpenContainer(char open) {
    Prefix();
    std::fputc(open, out_);
    std::fputc('\n', out_);
    stack_.push_back(false);
  }
  void CloseContainer(char close) {
    stack_.pop_back();
    std::fputc('\n', out_);
    Indent();
    std::fputc(close, out_);
    Finish();
  }
  /// Emits the comma/indent owed before a new element (no-op when this
  /// value completes a Key()).
  void Prefix() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    Separate();
    Indent();
  }
  void Separate() {
    if (!stack_.empty()) {
      if (stack_.back()) std::fputs(",\n", out_);
      stack_.back() = true;
    }
  }
  void Indent() {
    for (std::size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", out_);
  }
  void Finish() {
    if (stack_.empty()) std::fputc('\n', out_);
  }

  FILE* out_;
  std::vector<bool> stack_;  // per open container: "has an element"
  bool pending_value_ = false;
};

}  // namespace iotsec::bench
