// Streaming parameter-server baseline (§5.3): "a multi-core DPDK-based
// program that implements the logic of Algorithm 1", sharded uniformly over
// n PS processes so no single server's bandwidth is oversubscribed.
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
          std::uint32_t pool_size, bool timing_only, std::vector<net::NodeId> worker_ids);
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
  // is dropped (§3.4: the worker's timer repairs it).
  template <class Emit>
  void serve(const net::Packet& p, net::NodeId self, Time now, Emit&& emit);

  [[nodiscard]] const SoftwareAggregator::Counters& counters() const {
    return aggregator_.counters();
  }

private:
  int n_shards_;
  SoftwareAggregator aggregator_;
  std::vector<net::NodeId> worker_ids_;
};

// A dedicated PS machine: NIC-cost-modelled host running one shard.
class PsShardNode : public net::Node {
public:
  PsShardNode(sim::Simulation& simulation, net::NodeId id, std::string name,
              const net::NicConfig& nic, net::TransportKind transport,
              const net::RdmaUcParams& rdma, int n_workers, int n_shards,
              std::uint32_t pool_size, bool timing_only,
              std::vector<net::NodeId> worker_ids);

  void set_uplink(net::Link& link) { uplink_ = &link; }
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
                  const worker::WorkerConfig& wc, int n_shards, std::uint32_t pool_size,
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

enum class StreamingPsPlacement : std::uint8_t { Dedicated, Colocated };

struct StreamingPsConfig {
  int n_workers = 8;
  StreamingPsPlacement placement = StreamingPsPlacement::Dedicated;
  BitsPerSecond link_rate = gbps(10);
  Time propagation = nsec(500);
  std::int64_t queue_limit_bytes = 16 * kMiB;
  double loss_prob = 0.0;
  std::uint32_t pool_size = 128;
  std::uint32_t elems_per_packet = net::kDefaultElemsPerPacket;
  Time retransmit_timeout = msec(1);
  net::NicConfig nic;    // workers AND PS processes (all run the DPDK program)
  // Channel model for workers and PS processes alike (the fallback inherits
  // the fabric's transport so a degraded RDMA job replays over RDMA).
  net::TransportKind transport = net::kDefaultTransport;
  net::RdmaUcParams rdma;
  bool timing_only = false;
  Time switch_latency = nsec(400);
  std::uint64_t seed = 42;
};

class StreamingPsCluster {
public:
  explicit StreamingPsCluster(const StreamingPsConfig& config);
  StreamingPsCluster(const StreamingPsCluster&) = delete;
  StreamingPsCluster& operator=(const StreamingPsCluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] worker::Worker& worker(int i) { return *workers_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  void set_loss_prob(double p);

  std::vector<Time> reduce_timing(std::uint64_t total_elems);
  struct DataReduceResult {
    std::vector<std::vector<std::int32_t>> outputs;
    std::vector<Time> tat;
  };
  DataReduceResult reduce_i32(const std::vector<std::vector<std::int32_t>>& updates);

private:
  StreamingPsConfig config_;
  MetricsRegistry metrics_;
  sim::Simulation sim_;
  std::unique_ptr<net::L2Switch> fabric_;
  std::vector<std::unique_ptr<worker::Worker>> workers_; // includes colocated hosts
  std::vector<std::unique_ptr<PsShardNode>> ps_nodes_;   // dedicated only
  std::vector<std::unique_ptr<net::Link>> links_;
};

} // namespace switchml::collectives
