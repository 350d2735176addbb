#include "actors/world.h"

#include <array>
#include <thread>

namespace p2pcash::actors {

namespace {
std::uint64_t draw_u64(bn::Rng& rng) {
  std::array<std::uint8_t, 8> b{};
  rng.fill(b);
  std::uint64_t v = 0;
  for (std::uint8_t x : b) v = (v << 8) | x;
  return v;
}
}  // namespace

SimWorld::SimWorld(const group::SchnorrGroup& grp, Options options)
    : grp_(grp),
      options_(options),
      sink_(options_.trace_capacity),
      // Forked off its own copy of the seed, so the network's stream never
      // replays the Assembly's setup stream.
      rng_(crypto::ChaChaRng(options_.seed).fork("simnet")) {
  net_ = std::make_unique<simnet::Network>(
      sim_,
      std::make_unique<simnet::UniformLatency>(options_.latency_lo,
                                               options_.latency_hi),
      rng_, options_.wire);
  shim_ = std::make_unique<transport::SimnetTransport>(*net_);
  // The tracer reads the simulator clock directly: spans carry sim-time,
  // so the same seed replays a byte-identical trace.
  tracer_ = std::make_unique<obs::Tracer>([this]() { return sim_.now(); },
                                          &sink_, &registry_);
  // Mark exported batches as simulator traces so tooling can tell them
  // from TCP traces without filename conventions.  hardware_threads is
  // advisory metadata: the simulation itself is single-threaded.
  sink_.set_meta(
      {"sim", static_cast<std::uint32_t>(std::thread::hardware_concurrency())});
  set_tracing(options_.trace);
  nodes_ = std::make_unique<Assembly>(grp_, Assembly::spec_of(options_),
                                      *shim_, &store_vfs_, registry_);
  register_collectors();

  // Crash = process kill at an arbitrary byte of the unsynced log tail;
  // restart = reopen the log.  No acknowledged state may be lost.
  faults_ = std::make_unique<simnet::FaultPlan>(*net_);
  auto tear = [this](const std::string& log) {
    store_vfs_.crash_file(
        log, draw_u64(rng_) % (store_vfs_.unsynced_bytes(log) + 1));
  };
  faults_->set_recovery_hooks(
      directory().broker,
      /*on_crash=*/[tear](NodeId) { tear(Assembly::kBrokerLog); },
      /*on_restart=*/[this](NodeId) { nodes_->restart_broker(); });
  for (const auto& id : merchant_ids()) {
    faults_->set_recovery_hooks(
        merchant_node(id),
        /*on_crash=*/
        [tear, id](NodeId) { tear(Assembly::witness_log_name(id)); },
        /*on_restart=*/[this, id](NodeId) { nodes_->restart_merchant(id); });
  }
}

void SimWorld::set_merchant_down(const MerchantId& id, bool down) {
  net_->set_down(merchant_node(id), down);
}

void SimWorld::crash_merchant(const MerchantId& id, simnet::SimTime at,
                              simnet::SimTime restart_at) {
  faults_->schedule_crash(merchant_node(id), at, restart_at);
}

void SimWorld::crash_broker(simnet::SimTime at, simnet::SimTime restart_at) {
  faults_->schedule_crash(directory().broker, at, restart_at);
}

void SimWorld::set_tracing(bool on) {
  trace_on_ = on;
  net_->set_tracer(on ? tracer_.get() : nullptr);
}

void SimWorld::register_collectors() {
  registry_.register_collector([this]() {
    auto samples = obs::resilience_samples("world", resilience_totals());
    auto ops = obs::op_counter_samples("world", metrics::thread_op_totals());
    samples.insert(samples.end(), ops.begin(), ops.end());
    return samples;
  });
  registry_.register_collector([this]() {
    std::uint64_t sent = 0, received = 0, messages = 0;
    for (NodeId node : all_nodes()) {
      sent += net_->bytes_sent(node);
      received += net_->bytes_received(node);
      messages += net_->messages_sent(node);
    }
    using obs::Sample;
    return std::vector<Sample>{
        {"world_net_bytes_sent_total", static_cast<double>(sent),
         Sample::Type::kCounter},
        {"world_net_bytes_received_total", static_cast<double>(received),
         Sample::Type::kCounter},
        {"world_net_messages_sent_total", static_cast<double>(messages),
         Sample::Type::kCounter},
        {"world_sim_now_ms", sim_.now(), Sample::Type::kGauge},
        {"world_sim_events_executed_total",
         static_cast<double>(sim_.events_executed()), Sample::Type::kCounter},
        {"world_fixed_base_table_bytes",
         static_cast<double>(grp_.fixed_base_memory_bytes()),
         Sample::Type::kGauge},
        {"world_trace_spans", static_cast<double>(sink_.span_count()),
         Sample::Type::kGauge},
        {"world_trace_events", static_cast<double>(sink_.event_count()),
         Sample::Type::kGauge},
        {"world_trace_dropped_total", static_cast<double>(sink_.dropped()),
         Sample::Type::kCounter},
    };
  });
}

}  // namespace p2pcash::actors
