#include "devices/device.h"

#include "common/log.h"

namespace iotsec::devices {

std::string_view DeviceClassName(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kCamera: return "camera";
    case DeviceClass::kSmartPlug: return "smart_plug";
    case DeviceClass::kThermostat: return "thermostat";
    case DeviceClass::kFireAlarm: return "fire_alarm";
    case DeviceClass::kWindowActuator: return "window_actuator";
    case DeviceClass::kSmartLock: return "smart_lock";
    case DeviceClass::kLightBulb: return "light_bulb";
    case DeviceClass::kLightSensor: return "light_sensor";
    case DeviceClass::kSmartOven: return "smart_oven";
    case DeviceClass::kTrafficLight: return "traffic_light";
    case DeviceClass::kSetTopBox: return "set_top_box";
    case DeviceClass::kRefrigerator: return "refrigerator";
    case DeviceClass::kMotionSensor: return "motion_sensor";
    case DeviceClass::kHandheldScanner: return "handheld_scanner";
    case DeviceClass::kAttacker: return "attacker";
  }
  return "unknown";
}

std::string_view VulnerabilityName(Vulnerability v) {
  switch (v) {
    case Vulnerability::kDefaultPassword: return "default_password";
    case Vulnerability::kExposedAccess: return "exposed_access";
    case Vulnerability::kUnprotectedKeys: return "unprotected_keys";
    case Vulnerability::kNoCredentials: return "no_credentials";
    case Vulnerability::kOpenDnsResolver: return "open_dns_resolver";
    case Vulnerability::kBackdoor: return "backdoor";
  }
  return "unknown";
}

Device::Device(DeviceSpec spec, sim::Simulator& simulator,
               env::Environment* env, std::string initial_state)
    : sim_(simulator),
      env_(env),
      spec_(std::move(spec)),
      state_(std::move(initial_state)) {}

Device::~Device() = default;

void Device::ConnectUplink(net::Link* link, int my_end) {
  uplink_ = link;
  uplink_end_ = my_end;
  link->Attach(my_end, this, /*port=*/0);
}

void Device::Receive(net::PacketPtr pkt, int port) {
  (void)port;
  ++stats_.frames_in;
  const auto* frame = pkt->Parsed();
  if (!frame) return;
  // Accept frames addressed to us (or broadcast).
  if (frame->eth.dst != spec_.mac && !frame->eth.dst.IsBroadcast()) return;
  if (frame->ip && frame->ip->dst != spec_.ip &&
      frame->ip->dst != net::Ipv4Address(255, 255, 255, 255)) {
    return;
  }

  if (frame->udp) {
    // Control traffic arrives on the IoTCtl port, or on the cloud
    // keepalive flow (cloud-managed devices take commands as "replies").
    if (frame->udp->dst_port == proto::kIotCtlPort ||
        frame->udp->dst_port == kCloudPort) {
      auto msg = proto::IotCtlMessage::Parse(frame->payload);
      if (msg) {
        HandleIotCtl(*frame, *msg);
        return;
      }
    }
    if (frame->udp->dst_port == proto::kDnsPort) {
      auto query = proto::DnsMessage::Parse(frame->payload);
      if (query && !query->is_response) {
        HandleDns(*frame, *query);
        return;
      }
    }
  }
  if (frame->tcp && !frame->payload.empty()) {
    const auto req = proto::HttpRequestView::Parse(frame->payload);
    if (req) {
      HandleHttp(*frame, *req);
      return;
    }
  }
  HandleOther(*frame);
}

std::string Device::Actuate(proto::IotCommand cmd, const std::string& arg) {
  proto::IotCtlMessage msg;
  msg.type = proto::IotMsgType::kCommand;
  msg.command = cmd;
  msg.SetAuthToken(spec_.credential);
  if (!arg.empty()) msg.Add(proto::IotTag::kArgValue, arg);
  return Execute(msg);
}

void Device::StartCloudKeepalive(net::Ipv4Address cloud_ip,
                                 net::MacAddress cloud_mac,
                                 SimDuration period) {
  sim_.Every(period, [this, cloud_ip, cloud_mac] {
    proto::IotCtlMessage keepalive;
    keepalive.type = proto::IotMsgType::kEvent;
    keepalive.seq = next_seq_++;
    keepalive.Add(proto::IotTag::kSensor, "keepalive");
    keepalive.Add(proto::IotTag::kReading, state_);
    SendFrame(proto::BuildUdpFrame(spec_.mac, cloud_mac, spec_.ip, cloud_ip,
                                   kCloudPort, proto::kIotCtlPort,
                                   keepalive.Serialize()));
  });
}

void Device::SetState(std::string new_state) {
  if (state_ == new_state) return;
  state_ = std::move(new_state);
  SendEvent("state", state_);
}

bool Device::Authorized(const proto::IotCtlMessage& msg) const {
  if (Has(Vulnerability::kNoCredentials)) return true;
  if (msg.backdoor) return Has(Vulnerability::kBackdoor);
  const auto token = msg.AuthToken();
  return token.has_value() && *token == spec_.credential;
}

bool Device::AuthorizedHttp(const proto::HttpRequestView& req) const {
  if (Has(Vulnerability::kExposedAccess)) return true;
  const auto auth = req.Header("Authorization");
  if (!auth) return false;
  const auto creds = proto::ParseBasicAuth(*auth);
  if (!creds) return false;
  return creds->second == spec_.credential;
}

void Device::SendFrame(Bytes frame) {
  if (uplink_ == nullptr) return;
  SendPacket(net::MakePacket(std::move(frame)));
}

void Device::SendPacket(net::PacketPtr pkt) {
  ++stats_.frames_out;
  pkt->created_at = sim_.Now();
  uplink_->Send(uplink_end_, std::move(pkt));
}

void Device::SendUdpReply(const proto::ParsedFrame& req,
                          std::span<const std::uint8_t> payload) {
  if (!req.ip || !req.udp) return;
  SendFrame(proto::BuildUdpFrame(spec_.mac, req.eth.src, spec_.ip,
                                 req.ip->src, req.udp->dst_port,
                                 req.udp->src_port, payload));
}

void Device::SendHttpReply(const proto::ParsedFrame& req,
                           const proto::HttpResponse& resp) {
  if (!req.ip || !req.tcp || uplink_ == nullptr) return;
  proto::TcpHeader tcp;
  tcp.src_port = req.tcp->dst_port;
  tcp.dst_port = req.tcp->src_port;
  tcp.seq = req.tcp->ack;
  tcp.ack = req.tcp->seq + static_cast<std::uint32_t>(req.payload.size());
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  auto pkt = net::MakePacket();
  Bytes& wire = pkt->MutableData();
  proto::WriteTcpHeaders(wire, spec_.mac, req.eth.src, spec_.ip, req.ip->src,
                         tcp, resp.SerializedSize());
  resp.SerializeTo(wire);
  SendPacket(std::move(pkt));
}

void Device::SendEvent(std::string sensor, std::string reading) {
  if (spec_.hub_ip == net::Ipv4Address()) return;  // no hub configured
  proto::IotCtlMessage event;
  event.type = proto::IotMsgType::kEvent;
  event.seq = next_seq_++;
  event.Add(proto::IotTag::kSensor, std::move(sensor));
  event.Add(proto::IotTag::kReading, std::move(reading));
  SendFrame(proto::BuildUdpFrame(spec_.mac, spec_.hub_mac, spec_.ip,
                                 spec_.hub_ip, proto::kIotCtlPort,
                                 proto::kIotCtlPort, event.Serialize()));
}

void Device::HandleIotCtl(const proto::ParsedFrame& frame,
                          const proto::IotCtlMessage& msg) {
  switch (msg.type) {
    case proto::IotMsgType::kCommand:
      RespondToCommand(frame, msg);
      return;
    case proto::IotMsgType::kQuery: {
      proto::IotCtlMessage resp;
      resp.type = proto::IotMsgType::kResponse;
      resp.seq = msg.seq;
      resp.Add(proto::IotTag::kStateName, "state");
      resp.Add(proto::IotTag::kStateValue, state_);
      SendUdpReply(frame, resp.Serialize());
      return;
    }
    case proto::IotMsgType::kResponse:
    case proto::IotMsgType::kEvent:
      return;  // devices ignore unsolicited responses/events
  }
}

void Device::RespondToCommand(const proto::ParsedFrame& frame,
                              const proto::IotCtlMessage& msg) {
  proto::IotCtlMessage resp;
  resp.type = proto::IotMsgType::kResponse;
  resp.seq = msg.seq;
  resp.command = msg.command;
  if (!Authorized(msg)) {
    ++stats_.commands_denied;
    ++stats_.auth_failures;
    resp.Add(proto::IotTag::kResultCode, "denied");
  } else {
    ++stats_.commands_accepted;
    resp.Add(proto::IotTag::kResultCode, Execute(msg));
  }
  SendUdpReply(frame, resp.Serialize());
}

void Device::HandleHttp(const proto::ParsedFrame& frame,
                        const proto::HttpRequestView& req) {
  proto::HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  SendHttpReply(frame, resp);
  (void)req;
}

void Device::HandleDns(const proto::ParsedFrame& frame,
                       const proto::DnsMessage& query) {
  (void)frame;
  (void)query;  // devices do not answer DNS unless they run a resolver
}

void Device::HandleOther(const proto::ParsedFrame& frame) {
  // Minimal TCP liveness: answer SYN with SYN-ACK so scanners see the
  // port as open (used by the Table 1 census scanner).
  if (frame.tcp && frame.tcp->Syn() && !frame.tcp->Ack()) {
    proto::TcpHeader tcp;
    tcp.src_port = frame.tcp->dst_port;
    tcp.dst_port = frame.tcp->src_port;
    tcp.seq = 1000;
    tcp.ack = frame.tcp->seq + 1;
    tcp.flags = proto::TcpFlags::kSyn | proto::TcpFlags::kAck;
    SendFrame(proto::BuildTcpFrame(spec_.mac, frame.eth.src, spec_.ip,
                                   frame.ip->src, tcp, {}));
  }
}

}  // namespace iotsec::devices
