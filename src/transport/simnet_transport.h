// simnet_transport.h — the deterministic Transport: a forwarding shim
// over simnet::Network.
//
// Every method is a one-line delegation to the simnet object the call
// concerns (net.send, sim.schedule, sim.now, net.rng, net.tracer).  The
// shim draws no randomness and schedules no events of its own, so a
// seeded run stays a pure function of its seed: same RNG draw sequence,
// same event ordering, same chaos schedule on every replay.
//
// post() is the one genuinely new entry point (external injection onto an
// actor's strand).  On simnet a strand is just the single simulator
// thread, so it maps to schedule(0, fn): the task runs at the current
// sim-time, FIFO with everything else scheduled now.  Only new
// (transport-aware) drivers call it.  run_checks() keeps the base's
// inline default: the checks run in list order, stopping at the first
// failure, the same crypto in the same order as one sequential
// verification.

#pragma once

#include "transport/transport.h"

namespace p2pcash::transport {

class SimnetTransport final : public Transport {
 public:
  explicit SimnetTransport(simnet::Network& net) : net_(net) {}

  NodeId attach(simnet::Node& node) override { return net_.attach(node); }
  void send(Message msg) override { net_.send(std::move(msg)); }
  SimTime now() const override { return net_.sim().now(); }
  void schedule_on(NodeId, SimTime delay_ms,
                   std::function<void()> fn) override {
    net_.sim().schedule(delay_ms, std::move(fn));
  }
  void post(NodeId, std::function<void()> fn) override {
    net_.sim().schedule(0, std::move(fn));
  }
  bn::Rng& rng(NodeId) override { return net_.rng(); }
  obs::Tracer* tracer() const override { return net_.tracer(); }

  simnet::Network& net() { return net_; }

 private:
  simnet::Network& net_;
};

}  // namespace p2pcash::transport
