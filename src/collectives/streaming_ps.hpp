// The streaming parameter-server baseline (§5.3) under its collective names.
// It is built as a core::Fabric shape (core::StreamingPsSpec) by the one
// TopologyBuilder, from its PS nodes in collectives/ps_shard.hpp;
// `StreamingPsConfig` is FabricParams plus the PS shape, the way
// core::ClusterConfig is FabricParams plus the rack.
#pragma once

#include "collectives/ps_shard.hpp"
#include "core/fabric.hpp"

namespace switchml::collectives {

using StreamingPsPlacement = core::StreamingPsPlacement;

struct StreamingPsConfig : core::FabricParams {
  int n_workers = 8;
  StreamingPsPlacement placement = StreamingPsPlacement::Dedicated;

  // Implicit, so `StreamingPsCluster cluster(config)` builds the fabric.
  operator core::FabricConfig() const {
    return core::FabricConfig(*this, core::StreamingPsSpec{n_workers, placement});
  }
};

using StreamingPsCluster = core::Fabric;

} // namespace switchml::collectives
