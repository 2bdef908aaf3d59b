#include "dataplane/element.h"

#include "common/strings.h"

namespace iotsec::dataplane {

std::optional<ConfigMap> ParseConfigArgs(std::string_view args,
                                         std::string* error) {
  ConfigMap out;
  std::string key;
  std::string value;
  bool in_value = false;
  bool in_quotes = false;

  auto flush = [&]() -> bool {
    const auto k = Trim(key);
    if (k.empty() && Trim(value).empty()) {
      key.clear();
      value.clear();
      in_value = false;
      return true;
    }
    if (k.empty()) {
      if (error) *error = "empty key in config";
      return false;
    }
    out[std::string(k)] = std::string(Trim(value));
    key.clear();
    value.clear();
    in_value = false;
    return true;
  };

  for (char c : args) {
    if (in_quotes) {
      if (c == '"') {
        in_quotes = false;
      } else {
        value += c;
      }
      continue;
    }
    if (c == '"' && in_value) {
      in_quotes = true;
    } else if (c == '=' && !in_value) {
      in_value = true;
    } else if (c == ',') {
      if (!flush()) return std::nullopt;
    } else {
      (in_value ? value : key) += c;
    }
  }
  if (in_quotes) {
    if (error) *error = "unterminated quote in config";
    return std::nullopt;
  }
  if (!flush()) return std::nullopt;
  return out;
}

std::vector<std::string> SplitConfigStatements(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  bool quoted = false;
  bool comment = false;
  bool blank = true;  // nothing but whitespace yet in this statement
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n' && !quoted) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
      comment = false;
      blank = true;
      continue;
    }
    if (blank && !IsAsciiSpace(c)) {
      blank = false;
      comment = c == '#';
    }
    if (c == '"' && !comment) quoted = !quoted;
  }
  out.emplace_back(text.substr(start));
  return out;
}

void Element::ConnectOutput(int out_port, Element* next, int next_in_port) {
  if (out_port >= static_cast<int>(outputs_.size())) {
    outputs_.resize(static_cast<std::size_t>(out_port) + 1);
  }
  outputs_[static_cast<std::size_t>(out_port)] = Wire{next, next_in_port};
}

void Element::Output(net::PacketPtr pkt, int out_port) {
  ++stats_.out;
  if (out_port < static_cast<int>(outputs_.size())) {
    const Wire& wire = outputs_[static_cast<std::size_t>(out_port)];
    if (wire.next != nullptr) {
      wire.next->Accept(std::move(pkt), wire.in_port);
      return;
    }
  }
  if (egress_) {
    egress_(std::move(pkt));
  }
}

void Element::RaiseAlert(std::string kind, std::string detail,
                         std::vector<std::uint32_t> sids) {
  ++stats_.alerts;
  if (obs::Enabled()) {
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kPacketVerdict,
        ctx_.sim != nullptr ? ctx_.sim->Now() : 0,
        static_cast<std::uint32_t>(std::hash<std::string>{}(name_)),
        sids.empty() ? 1 : sids.front());
  }
  if (!alert_sink_) return;
  Alert alert;
  alert.element = name_;
  alert.kind = std::move(kind);
  alert.detail = std::move(detail);
  alert.sids = std::move(sids);
  alert.at = ctx_.sim != nullptr ? ctx_.sim->Now() : 0;
  alert_sink_(std::move(alert));
}

}  // namespace iotsec::dataplane
