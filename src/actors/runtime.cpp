#include "actors/runtime.h"

#include <thread>
#include <utility>

namespace p2pcash::actors {

NodeRuntime::NodeRuntime(const group::SchnorrGroup& grp, Options options)
    : grp_(grp),
      options_(options),
      sink_(options.trace_capacity),
      flight_(options.flight_capacity, obs::clock_fn(wall_clock_)),
      tracer_(wall_clock_, &sink_, &registry_),
      obs_server_(obs::ObsServer::Sources{&registry_, &sink_, &flight_,
                                          /*healthy=*/nullptr}) {
  sink_.set_meta(
      {"tcp", static_cast<std::uint32_t>(std::thread::hardware_concurrency())});
  if (!options_.flight_artifact.empty())
    flight_.set_artifact_path(options_.flight_artifact);
  registry_.register_collector([this] {
    using obs::Sample;
    return std::vector<Sample>{
        {"runtime_trace_spans", static_cast<double>(sink_.span_count()),
         Sample::Type::kGauge},
        {"runtime_trace_events", static_cast<double>(sink_.event_count()),
         Sample::Type::kGauge},
        {"runtime_trace_dropped_total", static_cast<double>(sink_.dropped()),
         Sample::Type::kCounter},
        {"runtime_flight_recorded_total",
         static_cast<double>(flight_.recorded()), Sample::Type::kCounter},
    };
  });

  auto net_options = options_.net;
  net_options.worker_threads = options_.worker_threads;
  net_options.seed = options_.seed;
  net_options.metrics = &registry_;
  net_options.tracer = &tracer_;
  net_options.flight = &flight_;
  net_ = std::make_unique<transport::TcpNet>(net_options);

  nodes_ = std::make_unique<Assembly>(
      grp_, Assembly::spec_of(options_), *net_,
      options_.durable_stores ? &store_vfs_ : nullptr, registry_);
}

NodeRuntime::~NodeRuntime() { stop(); }

void NodeRuntime::start() {
  // An explicit artifact path opts this runtime into the process-global
  // crash hooks: SIGABRT (including lock-order violations) and SIGUSR1
  // dump the breadcrumb ring to that file.  Signal dispositions are
  // process-wide, so only the runtime the owner configured installs them.
  if (!options_.flight_artifact.empty())
    obs::FlightRecorder::install_process_hooks(&flight_);
  net_->start();
}

void NodeRuntime::stop() {
  if (!options_.flight_artifact.empty())
    obs::FlightRecorder::install_process_hooks(nullptr);
  obs_server_.stop();
  if (net_) net_->stop();
}

std::uint16_t NodeRuntime::start_obs_server(std::uint16_t port) {
  return obs_server_.start(port);
}

void NodeRuntime::stop_obs_server() { obs_server_.stop(); }

void NodeRuntime::set_merchant_down(const MerchantId& id, bool down) {
  net_->set_down(merchant_node(id), down);
}

ecash::Outcome<ecash::WalletCoin> NodeRuntime::withdraw(ClientActor& client,
                                                        Cents denomination,
                                                        SimTime deadline_ms) {
  auto promise =
      std::make_shared<std::promise<ecash::Outcome<ecash::WalletCoin>>>();
  auto future = promise->get_future();
  net_->post(client.id(), [&client, denomination, deadline_ms, promise] {
    client.withdraw(
        denomination,
        [promise](ecash::Outcome<ecash::WalletCoin> result) {
          promise->set_value(std::move(result));
        },
        deadline_ms);
  });
  return future.get();
}

ClientActor::PayResult NodeRuntime::pay(ClientActor& client,
                                        const ecash::WalletCoin& coin,
                                        const MerchantId& merchant,
                                        SimTime timeout_ms) {
  auto promise = std::make_shared<std::promise<ClientActor::PayResult>>();
  auto future = promise->get_future();
  net_->post(client.id(), [&client, coin, merchant, timeout_ms, promise] {
    client.pay(
        coin, merchant,
        [promise](ClientActor::PayResult result) {
          promise->set_value(std::move(result));
        },
        timeout_ms);
  });
  return future.get();
}

}  // namespace p2pcash::actors
