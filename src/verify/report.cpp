#include "verify/report.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace iotsec::verify {

std::string Finding::ToString() const {
  std::string out = SeverityName(severity);
  out += " ";
  out += code;
  out += " [";
  out += object;
  out += "]";
  if (line > 0) {
    out += " @" + std::to_string(line) + ":" + std::to_string(col);
  }
  out += ": ";
  out += message;
  return out;
}

std::string Finding::BaselineKey() const {
  return code + "\t" + object + "\t" + message;
}

bool Finding::operator<(const Finding& other) const {
  // Errors first so the console shows the gating findings at the top;
  // within a severity, group by object and position so a file's findings
  // read top-to-bottom; code then message break the remaining ties, so
  // the order is total even for findings sharing a file:line:col.
  const int sev_a = -static_cast<int>(severity);
  const int sev_b = -static_cast<int>(other.severity);
  return std::tie(sev_a, object, line, col, code, message) <
         std::tie(sev_b, other.object, other.line, other.col, other.code,
                  other.message);
}

void Report::Finalize() {
  std::sort(findings_.begin(), findings_.end());
  findings_.erase(std::unique(findings_.begin(), findings_.end()),
                  findings_.end());
}

std::size_t Report::SuppressBaseline(const std::set<std::string>& baseline) {
  const std::size_t before = findings_.size();
  std::erase_if(findings_, [&](const Finding& f) {
    return baseline.count(f.BaselineKey()) > 0;
  });
  return before - findings_.size();
}

std::set<std::string> ParseBaseline(const std::string& text) {
  std::set<std::string> keys;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const bool blank =
        line.find_first_not_of(" \t") == std::string::npos;
    if (!blank && line[0] != '#') keys.insert(std::move(line));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return keys;
}

std::string FormatBaseline(const Report& report) {
  std::string out =
      "# iotsec_lint baseline: one suppressed finding per line\n"
      "# (code<TAB>object<TAB>message — regenerate with --write-baseline)\n";
  std::set<std::string> keys;
  for (const auto& f : report.findings()) keys.insert(f.BaselineKey());
  for (const auto& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::size_t Report::CountAtLeast(Severity floor) const {
  std::size_t n = 0;
  for (const auto& f : findings_) {
    if (static_cast<int>(f.severity) >= static_cast<int>(floor)) ++n;
  }
  return n;
}

std::string Report::ToText() const {
  std::string out;
  for (const auto& f : findings_) {
    out += f.ToString();
    out += '\n';
  }
  const auto errors = CountAtLeast(Severity::kError);
  const auto warns = CountAtLeast(Severity::kWarn) - errors;
  out += std::to_string(findings_.size()) + " finding(s): " +
         std::to_string(errors) + " error(s), " + std::to_string(warns) +
         " warning(s), " +
         std::to_string(findings_.size() - errors - warns) + " info(s)\n";
  return out;
}

std::string Report::ToJson() const {
  std::string out = "{\"findings\":[";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    const auto& f = findings_[i];
    if (i) out += ',';
    out += "{\"code\":\"" + JsonEscape(f.code) + "\"";
    out += ",\"severity\":\"";
    out += SeverityName(f.severity);
    out += "\"";
    out += ",\"object\":\"" + JsonEscape(f.object) + "\"";
    out += ",\"line\":" + std::to_string(f.line);
    out += ",\"col\":" + std::to_string(f.col);
    out += ",\"message\":\"" + JsonEscape(f.message) + "\"}";
  }
  const auto errors = CountAtLeast(Severity::kError);
  const auto warns = CountAtLeast(Severity::kWarn) - errors;
  out += "],\"errors\":" + std::to_string(errors);
  out += ",\"warnings\":" + std::to_string(warns);
  out += ",\"infos\":" +
         std::to_string(findings_.size() - errors - warns);
  out += "}";
  return out;
}

}  // namespace iotsec::verify
