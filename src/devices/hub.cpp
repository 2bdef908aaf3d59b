#include "devices/hub.h"

namespace iotsec::devices {

Hub::Hub(DeviceSpec spec, sim::Simulator& simulator, env::Environment* env)
    : Device(std::move(spec), simulator, env, "online") {}

void Hub::Start() { ReportState(); }

void Hub::Enroll(const Device& member) {
  members_[member.spec().name] = Member{member.spec().ip, member.spec().mac,
                                        member.spec().credential};
}

void Hub::HandleIotCtl(const proto::ParsedFrame& frame,
                       const proto::IotCtlMessage& msg) {
  // Relay responses from members back to the original requester.
  if (msg.type == proto::IotMsgType::kResponse) {
    const auto it = pending_.find(msg.seq);
    if (it != pending_.end()) {
      proto::IotCtlMessage relayed = msg;
      relayed.seq = it->second.requester_seq;
      SendFrame(proto::BuildUdpFrame(
          spec_.mac, it->second.requester_mac, spec_.ip,
          it->second.requester_ip, proto::kIotCtlPort,
          it->second.requester_port, relayed.Serialize()));
      pending_.erase(it);
      return;
    }
  }

  // Relay commands naming a target member.
  if (msg.type == proto::IotMsgType::kCommand) {
    const auto key = msg.Find(proto::IotTag::kArgKey);
    if (key && *key == "target") {
      const auto target = msg.Find(proto::IotTag::kArgValue);
      proto::IotCtlMessage resp;
      resp.type = proto::IotMsgType::kResponse;
      resp.seq = msg.seq;
      resp.command = msg.command;
      if (!Authorized(msg)) {
        ++relay_stats_.denied;
        ++stats_.auth_failures;
        resp.Add(proto::IotTag::kResultCode, "denied");
        SendUdpReply(frame, resp.Serialize());
        return;
      }
      const auto it = target ? members_.find(*target) : members_.end();
      if (it == members_.end()) {
        ++relay_stats_.unknown_target;
        resp.Add(proto::IotTag::kResultCode, "unknown_target");
        SendUdpReply(frame, resp.Serialize());
        return;
      }
      // Re-issue with the member's credential; remember who asked.
      ++relay_stats_.relayed;
      proto::IotCtlMessage relayed;
      relayed.type = proto::IotMsgType::kCommand;
      relayed.command = msg.command;
      relayed.seq = next_relay_seq_++;
      relayed.SetAuthToken(it->second.credential);
      pending_[relayed.seq] =
          PendingRelay{frame.ip->src, frame.eth.src,
                       frame.udp->src_port, msg.seq};
      SendFrame(proto::BuildUdpFrame(spec_.mac, it->second.mac, spec_.ip,
                                     it->second.ip, proto::kIotCtlPort,
                                     proto::kIotCtlPort,
                                     relayed.Serialize()));
      return;
    }
  }
  Device::HandleIotCtl(frame, msg);
}

std::string Hub::Execute(const proto::IotCtlMessage& msg) {
  return msg.command == proto::IotCommand::kStatus ? "ok" : "unsupported";
}

}  // namespace iotsec::devices
