#include "dataplane/element.h"

namespace iotsec::dataplane {

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
