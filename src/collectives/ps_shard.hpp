// The nodes of the streaming parameter-server baseline (§5.3): "a
// multi-core DPDK-based program that implements the logic of Algorithm 1",
// sharded uniformly over n PS processes so no single server's bandwidth is
// oversubscribed. core::TopologyBuilder wires them as the StreamingPsSpec
// fabric shape (also the switch-dead fallback's replay).
//
// Workers run the unmodified SwitchML worker protocol (same 180-byte update
// packets, same self-clocked slot pool, same retransmission timers); the only
// difference is where the packets go: slot idx is served by PS process
// idx % n_ps instead of the switch. A PS process aggregates in host software
// (full Algorithm 3 state — seen bitmaps and shadow copies — so it is loss-
// tolerant like the switch) and answers a completed slot with one unicast
// result per worker.
//
// Two placements, as in Fig 4:
//   * Dedicated: n extra machines run the PS processes (2n hosts total);
//   * Colocated: worker i's host also runs PS shard i, sharing its NIC cores
//     and link bandwidth — which is precisely why it tops out at half the
//     rate of SwitchML/dedicated.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "net/l2switch.hpp"
#include "quant/float16.hpp"
#include "worker/worker.hpp"

namespace switchml::collectives {

// Host-software implementation of the switch's aggregation state machine
// (Algorithm 3 without the dataplane register constraints).
class SoftwareAggregator {
public:
  SoftwareAggregator(int n_workers, std::uint32_t pool_size, bool timing_only);

  struct Outcome {
    enum class Kind { Absorbed, Completed, ReplyStored, Ignored };
    Kind kind = Kind::Absorbed;
    std::vector<std::int32_t> values; // result payload for Completed/ReplyStored
  };
  Outcome process(const net::Packet& p);

  struct Counters {
    std::uint64_t updates = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t completions = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

private:
  struct Slot {
    std::uint32_t count[2] = {0, 0};
    std::uint64_t seen[2] = {0, 0};
    std::vector<std::int32_t> pool[2];
  };
  int n_;
  bool timing_only_;
  std::vector<Slot> slots_;
  Counters counters_;
};

// One PS shard's serve path, shared by both placements: the aggregation
// state, its three registered counters (`<prefix>updates`, ...), the core
// steering and the result fan-out.
class PsShard {
public:
  PsShard(const std::string& metric_prefix, int n_workers, int n_shards,
          std::uint32_t pool_size, bool timing_only, int fp16_frac_bits,
          std::vector<net::NodeId> worker_ids);
  PsShard(const PsShard&) = delete;
  PsShard& operator=(const PsShard&) = delete;

  // This shard serves slots idx with idx % n_shards == shard; Flow Director
  // spreads them over the cores by the QUOTIENT so consecutive served slots
  // hit different cores (idx % cores would pin one core per shard).
  [[nodiscard]] int core_of(std::uint32_t idx, int cores) const {
    return static_cast<int>((idx / static_cast<std::uint32_t>(n_shards_)) %
                            static_cast<std::uint32_t>(cores));
  }

  // Aggregates one update received by node `self` and passes each result to
  // `emit(packet)`: one unicast per worker, in worker order, when the slot
  // completes (software PS has no traffic manager), or one reply to the
  // sender for a retransmission into a completed slot. A corrupted update
  // is dropped (§3.4: the worker's timer repairs it). 16-bit updates
  // (elem_bytes == 2) pass through the switch's §3.7 ingress/egress tables,
  // converting `p`'s values in place.
  template <class Emit>
  void serve(net::Packet& p, net::NodeId self, Time now, Emit&& emit);

  [[nodiscard]] const SoftwareAggregator::Counters& counters() const {
    return aggregator_.counters();
  }

private:
  int n_shards_;
  int fp16_frac_bits_;
  SoftwareAggregator aggregator_;
  std::vector<net::NodeId> worker_ids_;
  std::unique_ptr<quant::Fp16Table> fp16_table_; // built on the first 16-bit update
};

// A dedicated PS machine: NIC-cost-modelled host running one shard.
class PsShardNode : public net::Node {
public:
  PsShardNode(sim::Simulation& simulation, net::NodeId id, std::string name,
              const net::NicConfig& nic, net::TransportKind transport,
              const net::RdmaUcParams& rdma, int n_workers, int n_shards,
              std::uint32_t pool_size, bool timing_only, int fp16_frac_bits,
              std::vector<net::NodeId> worker_ids);

  void set_uplink(net::Link& link) { uplink_ = &link; }
  // Serves SmlUpdate packets only: a PS never restarts and has no slot state
  // to report, so any other kind (a sync query, a rescue) means a worker was
  // misconfigured, and counting it as a contribution would corrupt the sum.
  // Throws std::logic_error naming the kind.
  void receive(net::Packet&& p, int port) override;
  [[nodiscard]] const SoftwareAggregator::Counters& counters() const { return shard_.counters(); }

private:
  void handle(net::Packet&& p);
  [[nodiscard]] int core_of(std::uint32_t idx) const { return shard_.core_of(idx, nic_.cores()); }

  net::HostNic nic_;
  std::unique_ptr<net::Channel> channel_;
  net::Link* uplink_ = nullptr;
  PsShard shard_;
};

// A colocated host: the SwitchML worker protocol plus a PS shard sharing the
// same NIC cores and link.
class PsColocatedHost : public worker::Worker {
public:
  PsColocatedHost(sim::Simulation& simulation, net::NodeId id, std::string name,
                  const worker::WorkerConfig& wc, int n_shards, int fp16_frac_bits,
                  std::vector<net::NodeId> worker_ids);

  void receive(net::Packet&& p, int port) override;
  [[nodiscard]] const SoftwareAggregator::Counters& shard_counters() const {
    return shard_.counters();
  }

private:
  void handle_shard(net::Packet&& p);
  [[nodiscard]] int shard_core_of(std::uint32_t idx) { return shard_.core_of(idx, nic().cores()); }

  PsShard shard_;
};

} // namespace switchml::collectives
