// Recursive halving-and-doubling all-reduce [Thakur et al.], the other
// classic collective the paper discusses (§2.1): log2(n) reduce-scatter
// rounds exchanging halves with exponentially closer partners, then log2(n)
// all-gather rounds in reverse. Requires a power-of-two host count.
#pragma once

#include <cstdint>
#include <vector>

#include "collectives/baseline_cluster.hpp"

namespace switchml::collectives {

class HalvingDoublingAllReduce {
public:
  HalvingDoublingAllReduce(BaselineCluster& cluster, net::TransportProfile transport);

  // Both return the TAT, from the call to the last receiver's completion,
  // after draining the trailing ACKs (ring.hpp's run() contract).
  Time run(std::int64_t tensor_bytes);                 // timing-only
  Time run(std::vector<std::vector<float>>& buffers);  // data mode

private:
  Time execute(std::int64_t elems, std::vector<std::vector<float>>* buffers);

  BaselineCluster& cluster_;
  net::TransportProfile transport_;
  std::uint32_t next_stream_ = 1'000'000;
};

} // namespace switchml::collectives
