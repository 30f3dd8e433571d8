// The benchmark's three workloads. Each drives the simulator only through its
// public API, the way a user script does, and checks every operation's output.
// Constructing a workload is the set-up (description, fabric, inputs); the
// caller then runs one untimed warm-up pass and the timed passes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "counts.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  // Shrinks every tensor and training point so a whole run takes about a
  // second (the smoke test); the figures are then meaningless.
  bool tiny = false;
  // Zero-based index (0 is the warm-up) of this workload's data-mode operation
  // whose output gets one element flipped before it is checked, or -1.
  // Proves corruption is counted as a failed operation, not a crash.
  long corrupt_operation = -1;
};

struct PassResult {
  std::uint64_t elements = 0; // tensor elements all-reduced in simulation
  double sim_s = 0.0;         // simulated seconds, summed over the operations
  int attempted = 0;          // operations: one reduction or one sweep point
  int failed = 0;
  std::vector<std::string> failures; // one line per failed operation
  LayerCounts counts;                // filled only when the pass was counted
};

class Workload {
public:
  virtual ~Workload() = default;
  // Runs one pass. `counted` reads the public counters around each call
  // (the traced run); otherwise only the correctness state is read.
  virtual PassResult pass(SpanLog& spans, bool counted) = 0;
  // The untimed pass that ends the set-up: by default one full pass.
  virtual PassResult warm_up(SpanLog& spans) { return pass(spans, false); }
  // True when sim_s must repeat exactly from pass to pass: a lossless
  // fabric, or one fresh fabric per operation.
  [[nodiscard]] virtual bool sim_repeats() const = 0;
  // Timed passes whose mean sim_s is reported: more than one where loss
  // makes every pass differ, so one seed's figure is not one pass's luck.
  [[nodiscard]] virtual int sim_passes() const { return 1; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, const Options& options,
                                                      SpanLog& spans);

} // namespace perfbench
