#include "dataplane/umbox.h"

#include "obs/obs.h"

namespace iotsec::dataplane {

std::string_view BootModelName(BootModel m) {
  switch (m) {
    case BootModel::kProcess: return "process";
    case BootModel::kMicroVm: return "micro_vm";
    case BootModel::kContainer: return "container";
    case BootModel::kFullVm: return "full_vm";
  }
  return "unknown";
}

std::string_view UmboxStateName(UmboxState s) {
  switch (s) {
    case UmboxState::kConfigured: return "configured";
    case UmboxState::kBooting: return "booting";
    case UmboxState::kRunning: return "running";
    case UmboxState::kStopped: return "stopped";
    case UmboxState::kCrashed: return "crashed";
  }
  return "unknown";
}

SimDuration BootLatency(BootModel m) {
  switch (m) {
    case BootModel::kProcess: return 2 * kMillisecond;
    case BootModel::kMicroVm: return 30 * kMillisecond;
    case BootModel::kContainer: return 400 * kMillisecond;
    case BootModel::kFullVm: return 12 * kSecond;
  }
  return kSecond;
}

std::unique_ptr<Umbox> Umbox::Create(UmboxSpec spec, const ElementContext& ctx,
                                     std::string* error) {
  auto graph = MboxGraph::Build(spec.config_text, ctx, error);
  if (!graph) return nullptr;
  std::unique_ptr<Umbox> box(new Umbox(std::move(spec), ctx));
  box->graph_ = std::move(graph);
  box->shard_packets_ = obs::ShardPackets(box->spec_.shard);
  return box;
}

Umbox::~Umbox() { boot_timer_.Cancel(); }

void Umbox::Boot(std::function<void()> on_ready) {
  state_ = UmboxState::kBooting;
  stats_.last_boot_started = ctx_.sim != nullptr ? ctx_.sim->Now() : 0;
  // The generation check kills stale ready-timers: a boot interrupted by
  // Crash()+Restart() leaves its old timer in the queue, and without the
  // guard it could fire inside the new boot window, flip the state early
  // and swallow the new on_ready.
  const std::uint64_t generation = ++boot_generation_;
  auto become_ready = [this, generation, on_ready = std::move(on_ready)] {
    if (generation != boot_generation_) return;   // superseded boot
    if (state_ != UmboxState::kBooting) return;  // stopped meanwhile
    state_ = UmboxState::kRunning;
    stats_.last_ready = ctx_.sim != nullptr ? ctx_.sim->Now() : 0;
    DrainBootQueue();
    if (on_ready) on_ready();
  };
  if (ctx_.sim != nullptr) {
    boot_timer_.Cancel();  // superseded; it would no-op anyway
    boot_timer_ =
        ctx_.sim->After(BootLatency(spec_.boot), std::move(become_ready));
  } else {
    become_ready();
  }
}

void Umbox::Process(net::PacketPtr pkt) {
  switch (state_) {
    case UmboxState::kRunning: {
      ++stats_.processed;
      if (obs::Enabled()) {
        obs::M().dp_packets->Inc();
        shard_packets_->Inc();
      }
      if (net::Packet::TracingEnabled()) {
        pkt->Trace("umbox:" + std::to_string(spec_.id));
      }
      // Whole-chain latency: one span around the graph walk covers every
      // element the frame traverses (sampling off = one branch).
      OBS_SPAN(obs::M().dp_chain_ns);
      graph_->Inject(std::move(pkt));
      return;
    }
    case UmboxState::kBooting:
    case UmboxState::kConfigured:
      if (boot_queue_.size() >= spec_.boot_queue_limit) {
        ++stats_.dropped_during_boot;
        if (obs::Enabled()) obs::M().dp_boot_drops->Inc();
      } else {
        ++stats_.queued_during_boot;
        boot_queue_.push_back(std::move(pkt));
        if (obs::Enabled()) obs::M().dp_boot_queue->Add(1);
      }
      return;
    case UmboxState::kStopped:
      return;  // silently dropped; the orchestrator already repointed flows
    case UmboxState::kCrashed:
      ++stats_.dropped_crashed;
      if (obs::Enabled()) obs::M().dp_boot_drops->Inc();
      return;
  }
}

void Umbox::Crash() {
  if (state_ == UmboxState::kCrashed) return;
  state_ = UmboxState::kCrashed;
  ++stats_.crashes;
  // Whatever was queued for the boot that will now never finish is lost.
  stats_.dropped_crashed += boot_queue_.size();
  if (obs::Enabled()) {
    obs::M().dp_boot_queue->Add(
        -static_cast<std::int64_t>(boot_queue_.size()));
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kUmboxCrash,
        ctx_.sim != nullptr ? ctx_.sim->Now() : 0, spec_.id, spec_.device);
  }
  boot_queue_.clear();
}

void Umbox::DrainBootQueue() {
  while (!boot_queue_.empty() && state_ == UmboxState::kRunning) {
    auto pkt = std::move(boot_queue_.front());
    boot_queue_.pop_front();
    if (obs::Enabled()) obs::M().dp_boot_queue->Add(-1);
    ++stats_.processed;
    if (net::Packet::TracingEnabled()) {
      pkt->Trace("umbox:" + std::to_string(spec_.id));
    }
    graph_->Inject(std::move(pkt));
  }
}

bool Umbox::Reconfigure(const std::string& new_config, std::string* error) {
  auto new_graph = MboxGraph::Build(new_config, ctx_, error);
  if (!new_graph) return false;
  new_graph->SetEgress(egress_);
  new_graph->SetAlertSink(alert_sink_);
  graph_ = std::move(new_graph);
  spec_.config_text = new_config;
  ++stats_.reconfigs;
  return true;
}

bool Umbox::Restart(const std::string& new_config, std::string* error,
                    std::function<void()> on_ready) {
  auto new_graph = MboxGraph::Build(new_config, ctx_, error);
  if (!new_graph) return false;
  new_graph->SetEgress(egress_);
  new_graph->SetAlertSink(alert_sink_);
  graph_ = std::move(new_graph);
  spec_.config_text = new_config;
  ++stats_.restarts;
  if (obs::Enabled()) {
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kUmboxRestart,
        ctx_.sim != nullptr ? ctx_.sim->Now() : 0, spec_.id, spec_.device);
  }
  Boot(std::move(on_ready));
  return true;
}

void Umbox::SetEgress(std::function<void(net::PacketPtr)> egress) {
  egress_ = std::move(egress);
  graph_->SetEgress(egress_);
}

void Umbox::SetAlertSink(std::function<void(Alert)> sink) {
  alert_sink_ = std::move(sink);
  graph_->SetAlertSink(alert_sink_);
}

}  // namespace iotsec::dataplane
