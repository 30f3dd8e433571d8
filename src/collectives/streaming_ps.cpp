#include "collectives/streaming_ps.hpp"

#include <stdexcept>

#include "common/attribution.hpp"

namespace switchml::collectives {

// ---------------------------------------------------------- SoftwareAggregator

SoftwareAggregator::SoftwareAggregator(int n_workers, std::uint32_t pool_size,
                                       bool timing_only)
    : n_(n_workers), timing_only_(timing_only), slots_(pool_size) {
  if (n_workers < 1 || n_workers > 64)
    throw std::invalid_argument("SoftwareAggregator: 1..64 workers");
}

SoftwareAggregator::Outcome SoftwareAggregator::process(const net::Packet& p) {
  ++counters_.updates;
  if (p.idx >= slots_.size()) throw std::runtime_error("SoftwareAggregator: slot out of range");
  Slot& slot = slots_[p.idx];
  const int ver = p.ver & 1;
  const std::uint64_t bit = 1ull << p.wid;

  Outcome out;
  if ((slot.seen[ver] & bit) == 0) {
    slot.seen[ver] |= bit;
    slot.seen[1 - ver] &= ~bit;
    slot.count[ver] = (slot.count[ver] + 1) % static_cast<std::uint32_t>(n_);
    const bool first = slot.count[ver] == 1 || n_ == 1;
    const bool complete = slot.count[ver] == 0;
    if (!timing_only_ && !p.values.empty()) {
      auto& pool = slot.pool[ver];
      if (first) {
        pool = p.values;
      } else {
        if (pool.size() < p.values.size()) pool.resize(p.values.size(), 0);
        for (std::size_t j = 0; j < p.values.size(); ++j)
          pool[j] = static_cast<std::int32_t>(static_cast<std::uint32_t>(pool[j]) +
                                              static_cast<std::uint32_t>(p.values[j]));
      }
      if (complete) out.values = pool;
    }
    if (complete) {
      ++counters_.completions;
      out.kind = Outcome::Kind::Completed;
    } else {
      out.kind = Outcome::Kind::Absorbed;
    }
  } else {
    ++counters_.duplicates;
    if (slot.count[ver] == 0) {
      out.kind = Outcome::Kind::ReplyStored;
      if (!timing_only_) out.values = slot.pool[ver];
    } else {
      out.kind = Outcome::Kind::Ignored;
    }
  }
  return out;
}

namespace {

// PS shards attribute slot dwell exactly like the hardware switch does:
// contributions enter kSwitchWait, completion moves every contributor to
// kSwitchReady, duplicates re-enter the phase the slot is actually in.
void attribute_outcome(net::NodeId shard, const net::Packet& p,
                       SoftwareAggregator::Outcome::Kind kind, Time now) {
  if (!attr::enabled()) return;
  using Kind = SoftwareAggregator::Outcome::Kind;
  switch (kind) {
    case Kind::Absorbed:
      attr::contribute(shard, p.job, p.ver & 1u, p.idx, p.src, p.off, now);
      break;
    case Kind::Completed:
      attr::contribute(shard, p.job, p.ver & 1u, p.idx, p.src, p.off, now);
      attr::complete_slot(shard, p.job, p.ver & 1u, p.idx, p.off, now);
      break;
    case Kind::ReplyStored:
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchReady, now);
      break;
    case Kind::Ignored:
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchWait, now);
      break;
  }
}

net::Packet make_result(const net::Packet& update, net::NodeId src, net::NodeId dst,
                        const std::vector<std::int32_t>& values) {
  net::Packet r;
  r.kind = net::PacketKind::SmlResult;
  r.src = src;
  r.dst = dst;
  r.job = update.job;
  r.wid = update.wid;
  r.ver = update.ver;
  r.idx = update.idx;
  r.off = update.off;
  r.elem_count = update.elem_count;
  r.elem_bytes = update.elem_bytes;
  r.transport = update.transport;
  r.values = values;
  r.seal();
  return r;
}

} // namespace

// ---------------------------------------------------------------------- PsShard

PsShard::PsShard(const std::string& metric_prefix, int n_workers, int n_shards,
                 std::uint32_t pool_size, bool timing_only, std::vector<net::NodeId> worker_ids)
    : n_shards_(n_shards),
      aggregator_(n_workers, pool_size, timing_only),
      worker_ids_(std::move(worker_ids)) {
  if (auto* reg = MetricsRegistry::current()) {
    reg->add_counter(metric_prefix + "updates", [this] { return aggregator_.counters().updates; });
    reg->add_counter(metric_prefix + "duplicates",
                     [this] { return aggregator_.counters().duplicates; });
    reg->add_counter(metric_prefix + "completions",
                     [this] { return aggregator_.counters().completions; });
  }
}

template <class Emit>
void PsShard::serve(const net::Packet& p, net::NodeId self, Time now, Emit&& emit) {
  if (!p.verify()) return;
  auto outcome = aggregator_.process(p);
  attribute_outcome(self, p, outcome.kind, now);
  if (outcome.kind == SoftwareAggregator::Outcome::Kind::Completed) {
    for (net::NodeId w : worker_ids_) emit(make_result(p, self, w, outcome.values));
  } else if (outcome.kind == SoftwareAggregator::Outcome::Kind::ReplyStored) {
    emit(make_result(p, self, p.src, outcome.values));
  }
}

// ------------------------------------------------------------------ PsShardNode

PsShardNode::PsShardNode(sim::Simulation& simulation, net::NodeId id, std::string name,
                         const net::NicConfig& nic, net::TransportKind transport,
                         const net::RdmaUcParams& rdma, int n_workers, int n_shards,
                         std::uint32_t pool_size, bool timing_only,
                         std::vector<net::NodeId> worker_ids)
    : Node(simulation, id, std::move(name)),
      nic_(simulation, nic),
      channel_(net::make_channel(simulation, this->name(), id, transport, nic_, rdma)),
      shard_(this->name() + ".", n_workers, n_shards, pool_size, timing_only,
             std::move(worker_ids)) {}

void PsShardNode::receive(net::Packet&& p, int /*port*/) {
  const int core = core_of(p.idx);
  auto shared = std::make_shared<net::Packet>(std::move(p));
  channel_->rx_process(core, *shared,
                       [this, shared]() mutable { handle(std::move(*shared)); });
}

void PsShardNode::handle(net::Packet&& p) {
  const int core = core_of(p.idx);
  shard_.serve(p, id(), sim_.now(), [this, core](net::Packet&& r) {
    const Time ready = channel_->tx_ready(core, r);
    uplink_->send_from(*this, std::move(r), ready);
  });
}

// -------------------------------------------------------------- PsColocatedHost

PsColocatedHost::PsColocatedHost(sim::Simulation& simulation, net::NodeId id, std::string name,
                                 const worker::WorkerConfig& wc, int n_shards,
                                 std::uint32_t pool_size, std::vector<net::NodeId> worker_ids)
    : Worker(simulation, id, std::move(name), wc),
      shard_(this->name() + ".shard.", wc.n_workers, n_shards, pool_size, wc.timing_only,
             std::move(worker_ids)) {}

void PsColocatedHost::receive(net::Packet&& p, int port) {
  if (p.kind == net::PacketKind::SmlUpdate) {
    // Shard traffic shares the worker's NIC cores (and its channel).
    const int core = shard_core_of(p.idx);
    auto shared = std::make_shared<net::Packet>(std::move(p));
    channel().rx_process(core, *shared,
                         [this, shared]() mutable { handle_shard(std::move(*shared)); });
    return;
  }
  Worker::receive(std::move(p), port);
}

void PsColocatedHost::handle_shard(net::Packet&& p) {
  const int core = shard_core_of(p.idx);
  shard_.serve(p, id(), simulation().now(), [this, core](net::Packet&& r) {
    if (r.dst == id()) {
      // Local delivery: the worker role consumes its own shard's result
      // without touching the wire (but still pays RX processing).
      Worker::receive(std::move(r), 0);
      return;
    }
    const Time ready = channel().tx_ready(core, r);
    uplink()->send_from(*this, std::move(r), ready);
  });
}

// ------------------------------------------------------------ StreamingPsCluster

StreamingPsCluster::StreamingPsCluster(const StreamingPsConfig& config) : config_(config) {
  const int n = config.n_workers;
  if (n < 1) throw std::invalid_argument("StreamingPsCluster: need workers");
  // Workers, PS shards and links register their counters into this cluster's
  // registry, same as the SwitchML fabric does.
  MetricsRegistry::Scope scope(&metrics_);
  const bool dedicated = config.placement == StreamingPsPlacement::Dedicated;

  fabric_ = std::make_unique<net::L2Switch>(sim_, 10'000, "fabric", config.switch_latency);

  net::LinkConfig lc;
  lc.rate = config.link_rate;
  lc.propagation = config.propagation;
  lc.queue_limit_bytes = config.queue_limit_bytes;
  lc.loss_prob = config.loss_prob;

  std::vector<net::NodeId> worker_ids;
  for (int i = 0; i < n; ++i) worker_ids.push_back(static_cast<net::NodeId>(i));

  // Slot idx is served by PS process idx % n (all n shards exist in both
  // placements; colocated shard i lives on worker host i).
  auto ps_id = [dedicated, n](std::uint32_t idx) {
    const int shard = static_cast<int>(idx) % n;
    return static_cast<net::NodeId>(dedicated ? 1000 + shard : shard);
  };

  for (int i = 0; i < n; ++i) {
    worker::WorkerConfig wc;
    wc.wid = static_cast<std::uint16_t>(i);
    wc.n_workers = n;
    wc.pool_size = config.pool_size;
    wc.elems_per_packet = config.elems_per_packet;
    wc.retransmit_timeout = config.retransmit_timeout;
    wc.nic = config.nic;
    wc.transport = config.transport;
    wc.rdma = config.rdma;
    wc.timing_only = config.timing_only;

    std::unique_ptr<worker::Worker> w;
    if (dedicated) {
      w = std::make_unique<worker::Worker>(sim_, static_cast<net::NodeId>(i),
                                           "worker-" + std::to_string(i), wc);
    } else {
      w = std::make_unique<PsColocatedHost>(sim_, static_cast<net::NodeId>(i),
                                            "host-" + std::to_string(i), wc, n,
                                            config.pool_size, worker_ids);
    }
    w->set_destination_resolver(ps_id);
    auto link = std::make_unique<net::Link>(sim_, lc, *w, 0, *fabric_, i,
                                            config.seed + static_cast<std::uint64_t>(i));
    w->set_uplink(*link);
    fabric_->attach(i, *link);
    workers_.push_back(std::move(w));
    links_.push_back(std::move(link));
  }

  if (dedicated) {
    for (int j = 0; j < n; ++j) {
      auto ps = std::make_unique<PsShardNode>(sim_, static_cast<net::NodeId>(1000 + j),
                                              "ps-" + std::to_string(j), config.nic,
                                              config.transport, config.rdma, n, n,
                                              config.pool_size, config.timing_only, worker_ids);
      auto link = std::make_unique<net::Link>(sim_, lc, *ps, 0, *fabric_, n + j,
                                              config.seed + 500 + static_cast<std::uint64_t>(j));
      ps->set_uplink(*link);
      fabric_->attach(n + j, *link);
      ps_nodes_.push_back(std::move(ps));
      links_.push_back(std::move(link));
    }
  }
}

void StreamingPsCluster::set_loss_prob(double p) {
  for (auto& l : links_) l->set_loss_prob(p);
}

std::vector<Time> StreamingPsCluster::reduce_timing(std::uint64_t total_elems) {
  if (!config_.timing_only)
    throw std::logic_error("StreamingPsCluster::reduce_timing requires timing_only");
  std::vector<Time> start(workers_.size()), tat(workers_.size(), -1);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    start[i] = sim_.now();
    workers_[i]->start_reduction(total_elems, [this, &start, &tat, i] {
      tat[i] = sim_.now() - start[i];
    });
  }
  sim_.run();
  for (Time t : tat)
    if (t < 0) throw std::runtime_error("StreamingPsCluster: reduction did not complete");
  return tat;
}

StreamingPsCluster::DataReduceResult StreamingPsCluster::reduce_i32(
    const std::vector<std::vector<std::int32_t>>& updates) {
  if (config_.timing_only)
    throw std::logic_error("StreamingPsCluster::reduce_i32 requires data mode");
  if (updates.size() != workers_.size())
    throw std::invalid_argument("StreamingPsCluster: one update per worker");
  DataReduceResult r;
  r.outputs.resize(updates.size());
  r.tat.assign(updates.size(), -1);
  std::vector<Time> start(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    r.outputs[i].assign(updates[i].size(), 0);
    start[i] = sim_.now();
    workers_[i]->start_reduction(updates[i], r.outputs[i], [this, &start, &r, i] {
      r.tat[i] = sim_.now() - start[i];
    });
  }
  sim_.run();
  for (Time t : r.tat)
    if (t < 0) throw std::runtime_error("StreamingPsCluster: reduction did not complete");
  return r;
}

} // namespace switchml::collectives
