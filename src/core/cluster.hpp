// The rack-scale deployment (§1) as a convenience over the unified fabric
// layer (core/fabric.hpp): `ClusterConfig` is FabricParams plus a worker
// count with the measured per-rate profile (`for_rate`), and `Cluster` keeps
// the rack accessors its callers use. Every other shape (§6 tenancy,
// hierarchy, deeper trees, explicit adjacency) is built directly as a
// `core::Fabric` from a `FabricConfig(params, Spec{...})`; all wiring lives
// in TopologyBuilder.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fabric.hpp"

namespace switchml::core {

// Rack-scale cluster (§1): n workers attached to one programmable
// aggregation switch, each over its own full-duplex link.
struct ClusterConfig : FabricParams {
  int n_workers = 8;

  // Convenience: profile for `rate` with the matching NIC and pool size.
  static ClusterConfig for_rate(BitsPerSecond rate, int n_workers = 8);

  [[nodiscard]] FabricConfig fabric() const {
    return FabricConfig(*this, RackSpec{n_workers});
  }
};

class Cluster {
public:
  explicit Cluster(const ClusterConfig& config) : config_(config), fabric_(config.fabric()) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return fabric_.simulation(); }
  [[nodiscard]] int n_workers() const { return fabric_.n_workers(); }
  [[nodiscard]] worker::Worker& worker(int i) { return fabric_.worker(i); }
  [[nodiscard]] swprog::AggregationSwitch& agg_switch() { return fabric_.root(); }
  [[nodiscard]] net::Link& link(int i) { return fabric_.link(static_cast<std::size_t>(i)); }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] MetricsRegistry& metrics() { return fabric_.metrics(); }

  // Sets the Bernoulli loss probability on every link, both directions
  // (the §5.5 loss experiments apply uniform loss "on every link").
  void set_loss_prob(double p) { fabric_.set_loss_prob(p); }

  // Runs one timing-only aggregation of `total_elems` elements on all
  // workers and returns each worker's tensor aggregation time (TAT, §5.1).
  std::vector<Time> reduce_timing(std::uint64_t total_elems) {
    return fabric_.reduce_timing(total_elems);
  }

  // Data-mode aggregation: updates[i] is worker i's quantized model update;
  // returns each worker's aggregated result and TAT.
  using DataReduceResult = Fabric::DataReduceResult;
  DataReduceResult reduce_i32(const std::vector<std::vector<std::int32_t>>& updates) {
    return fabric_.reduce_i32(updates);
  }

private:
  ClusterConfig config_;
  Fabric fabric_;
};

} // namespace switchml::core
