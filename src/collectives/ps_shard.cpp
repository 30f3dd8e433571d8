#include "collectives/ps_shard.hpp"

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
                 std::uint32_t pool_size, bool timing_only, int fp16_frac_bits,
                 std::vector<net::NodeId> worker_ids)
    : n_shards_(n_shards),
      fp16_frac_bits_(fp16_frac_bits),
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
void PsShard::serve(net::Packet& p, net::NodeId self, Time now, Emit&& emit) {
  if (!p.verify()) return;
  const bool fp16 = p.elem_bytes == 2 && !p.values.empty();
  if (fp16 && !fp16_table_) fp16_table_ = std::make_unique<quant::Fp16Table>(fp16_frac_bits_);
  if (fp16)
    for (std::int32_t& v : p.values)
      v = fp16_table_->to_fixed(static_cast<quant::half>(static_cast<std::uint32_t>(v)));
  auto outcome = aggregator_.process(p);
  if (fp16)
    for (std::int32_t& v : outcome.values) v = fp16_table_->to_half(v);
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
                         std::uint32_t pool_size, bool timing_only, int fp16_frac_bits,
                         std::vector<net::NodeId> worker_ids)
    : Node(simulation, id, std::move(name)),
      nic_(simulation, nic),
      channel_(net::make_channel(simulation, this->name(), id, transport, nic_, rdma)),
      shard_(this->name() + ".", n_workers, n_shards, pool_size, timing_only, fp16_frac_bits,
             std::move(worker_ids)) {}

void PsShardNode::receive(net::Packet&& p, int /*port*/) {
  if (p.kind != net::PacketKind::SmlUpdate)
    throw std::logic_error(name() + ": a PS shard serves only SmlUpdate packets, got " +
                           net::to_string(p.kind));
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
                                 int fp16_frac_bits, std::vector<net::NodeId> worker_ids)
    : Worker(simulation, id, std::move(name), wc),
      shard_(this->name() + ".shard.", wc.n_workers, n_shards, wc.pool_size, wc.timing_only,
             fp16_frac_bits, std::move(worker_ids)) {}

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

} // namespace switchml::collectives
