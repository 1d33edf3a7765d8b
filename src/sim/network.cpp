#include "sim/network.hpp"

#include <cassert>

namespace sim {

using Fate = runtime::MessageFate;

void Network::register_node(NodeId node, Handler handler) {
  if (node >= handlers_.size()) handlers_.resize(node + 1);
  handlers_[node] = std::move(handler);
}

void Network::set_node_down(NodeId node, bool down) {
  if (node >= down_.size()) down_.resize(node + 1, 0);
  down_[node] = down ? 1 : 0;
}

std::uint64_t Network::send(NodeId src, NodeId dst, std::any payload) {
  assert(dst < handlers_.size() && handlers_[dst]);
  ++stats_.sent;
  // A crashed endpoint swallows the message outright: a down node has no
  // running protocol stack to transmit or receive with.
  if (node_down(src) || node_down(dst)) {
    ++stats_.dropped_crashed;
    if (on_fate_) on_fate_(src, dst, 0, Fate::kDroppedCrashed);
    return 0;
  }
  // A cut active at send time swallows the message. The paper's broadcast
  // layer is responsible for eventual delivery via retransmission, so loss
  // here is exactly the failure the correctness conditions must tolerate.
  if (!faults_.connected(src, dst, sched_.now())) {
    ++stats_.dropped_partition;
    if (on_fate_) on_fate_(src, dst, 0, Fate::kDroppedPartition);
    return 0;
  }
  if (config_.drop_probability > 0.0 &&
      rng_.bernoulli(config_.drop_probability)) {
    ++stats_.dropped_random;
    if (on_fate_) on_fate_(src, dst, 0, Fate::kDroppedRandom);
    return 0;
  }
  const std::uint64_t id = next_msg_id_++;
  runtime::Message msg{src, dst, id, std::move(payload)};
  const Time latency = config_.delay.sample(rng_);
  if (on_fate_) on_fate_(src, dst, id, Fate::kSent);
  sched_.schedule_after(latency, [this, msg = std::move(msg)]() {
    // Deliver even if a partition started after the send: the datagram was
    // already in flight. (Cut-at-send-time is the standard simplification;
    // the broadcast layer tolerates either convention.) A crash is
    // different: a datagram arriving at a down node lands on dead hardware
    // and is lost — anti-entropy recovers it after the restart.
    if (node_down(msg.dst)) {
      ++stats_.dropped_crashed;
      if (on_fate_) on_fate_(msg.src, msg.dst, msg.id, Fate::kDroppedCrashed);
      return;
    }
    ++stats_.delivered;
    if (on_fate_) on_fate_(msg.src, msg.dst, msg.id, Fate::kDelivered);
    handlers_[msg.dst](msg);
  });
  return id;
}

std::size_t Network::send_to_all(NodeId src, const std::any& payload) {
  std::size_t n = 0;
  for (NodeId dst = 0; dst < handlers_.size(); ++dst) {
    if (dst == src || !handlers_[dst]) continue;
    send(src, dst, payload);
    ++n;
  }
  return n;
}

}  // namespace sim
