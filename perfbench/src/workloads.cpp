#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "collectives/baseline_cluster.hpp"
#include "collectives/halving_doubling.hpp"
#include "collectives/ring.hpp"
#include "collectives/streaming_ps.hpp"
#include "core/cluster.hpp"
#include "core/profiles.hpp"
#include "framework/training_sim.hpp"
#include "perfmodel/model_zoo.hpp"
#include "quant/fixed_point.hpp"
#include "scenario/scenario.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace switchml;
using Scope = SpanLog::Scope;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Start of the seed's own splitmix64 stream for `label`, so each seeded input
// is independent of the others.
std::uint64_t seed_stream(std::uint64_t seed, std::uint64_t label) {
  return seed * 0x100000001B3ULL + label;
}

// A value in [0, n) from the seed's stream for `label`.
std::uint64_t seeded_below(std::uint64_t seed, std::uint64_t label, std::uint64_t n) {
  std::uint64_t state = seed_stream(seed, label);
  return splitmix64(state) % n;
}

std::string describe(const std::exception& e) { return std::string("threw: ") + e.what(); }

// Shared per-operation checks of a SwitchML reduction's TATs and recovery
// state; returns the first violation, or nothing.
std::optional<std::string> check_reduction(core::Fabric& fabric, const std::vector<Time>& tats) {
  if (static_cast<int>(tats.size()) != fabric.n_workers()) return "wrong number of TATs";
  for (Time t : tats)
    if (!valid_positive(static_cast<double>(t))) return "zero or negative TAT";
  if (fabric.fallback_engaged()) return "unexpected fallback to the streaming PS";
  for (int w = 0; w < fabric.n_workers(); ++w)
    if (fabric.worker(w).recovery().dead_declared != 0) return "unexpected dead declaration";
  return std::nullopt;
}

void record(PassResult& r, const std::string& op, std::optional<std::string> failure) {
  ++r.attempted;
  if (!failure) return;
  ++r.failed;
  r.failures.push_back(op + ": " + *failure);
}

// --- rack100g_timing ---------------------------------------------------------

// One 8-worker rack at 100 Gbps, timing-only and lossless, reducing one
// tensor per pass on a long-lived fabric. The seed picks the tensor length
// (1M plus up to 16K elements), so sim_s differs between seeds but repeats
// exactly within one.
class RackTiming final : public Workload {
public:
  RackTiming(const Options& o, SpanLog& spans)
      : elems_((o.tiny ? 64 * 1024 : 1'000'000) + seeded_below(o.seed, 1, o.tiny ? 1024 : 16384)) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(100), 8);
    cfg.timing_only = true;
    cfg.seed = o.seed;
    Scope s(spans, "core.build");
    cluster_ = std::make_unique<core::Cluster>(cfg);
  }

  PassResult pass(SpanLog& spans, bool counted) override {
    PassResult r;
    core::Fabric& fabric = cluster_->fabric();
    const auto read = [&] {
      return LayerCounts::read(fabric.metrics(), fabric.simulation().events_executed(), true);
    };
    const LayerCounts before = counted ? read() : LayerCounts{};
    try {
      std::vector<Time> tats;
      {
        Scope s(spans, "core.reduce");
        tats = cluster_->reduce_timing(elems_);
      }
      r.elements = elems_;
      r.sim_s = reduction_sim_s(tats);
      record(r, "reduce_timing", check_reduction(fabric, tats));
    } catch (const std::exception& e) {
      record(r, "reduce_timing", describe(e));
    }
    if (counted) {
      r.counts = read();
      r.counts.subtract(before);
    }
    return r;
  }

  [[nodiscard]] bool sim_repeats() const override { return true; }

private:
  std::uint64_t elems_;
  std::unique_ptr<core::Cluster> cluster_;
};

// --- hier10g_lossy_data ------------------------------------------------------

// A 2x4 hierarchy at 10 Gbps with 1% Bernoulli loss on every link, described
// as a scenario document. Each pass quantizes the seeded float32 gradients,
// reduces them bit-exactly in data mode, checks the result against the
// benchmark's own wrapping sum and dequantizes it.
class HierLossyData final : public Workload {
public:
  static constexpr int kWorkers = 8;

  HierLossyData(const Options& o, SpanLog& spans)
      : elems_(o.tiny ? 16 * 1024 : 1'000'000), corrupt_operation_(o.corrupt_operation) {
    if (o.seed >= (1ULL << 53)) throw std::invalid_argument("--seed must be below 2^53");
    const std::string seed = std::to_string(o.seed);
    const std::string doc =
        R"({"schema_version": 1, "name": "perfbench-hier10g-lossy-data",)"
        R"( "description": "2x4 hierarchy, 10 Gbps, 1% loss on every link, data mode",)"
        R"( "topology": {"kind": "hierarchy", "racks": 2, "workers_per_rack": 4},)"
        R"( "fabric": {"link_rate_gbps": 10.0, "loss_prob": 0.01, "seed": )" +
        seed + R"(},)" + R"( "workload": {"mode": "data", "tensor_elems": )" +
        std::to_string(elems_) + "}}";
    core::FabricConfig cfg;
    {
      Scope s(spans, "scenario.load");
      cfg = scenario::to_fabric_config(scenario::load_string(doc));
    }
    {
      Scope s(spans, "core.build");
      fabric_ = std::make_unique<core::Fabric>(cfg);
    }
    if (fabric_->n_workers() != kWorkers) throw std::logic_error("hierarchy is not 2x4");
    Scope s(spans, "bench.inputs");
    gradients_.resize(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      std::uint64_t state = seed_stream(o.seed, 1000 + static_cast<std::uint64_t>(w));
      auto& g = gradients_[static_cast<std::size_t>(w)];
      g.resize(elems_);
      // Uniform in [-0.01, 0.01), the magnitude of a late-training gradient.
      for (float& x : g)
        x = static_cast<float>(static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53 * 0.02 -
                               0.01);
    }
    updates_.assign(kWorkers, std::vector<std::int32_t>(elems_));
    dequantized_.assign(kWorkers, std::vector<float>(elems_));
    expected_.resize(elems_);
  }

  PassResult pass(SpanLog& spans, bool counted) override {
    PassResult r;
    const auto read = [&] {
      return LayerCounts::read(fabric_->metrics(), fabric_->simulation().events_executed(), true);
    };
    const LayerCounts before = counted ? read() : LayerCounts{};
    const long op = operations_++;
    try {
      double f = 0.0;
      {
        Scope s(spans, "quant.quantize");
        f = quant::choose_scaling_factor(gradients_[0], kWorkers);
        for (std::size_t w = 1; w < gradients_.size(); ++w)
          f = std::min(f, quant::choose_scaling_factor(gradients_[w], kWorkers));
        for (std::size_t w = 0; w < gradients_.size(); ++w)
          quant::quantize(gradients_[w], f, updates_[w]);
      }
      core::Fabric::DataReduceResult out;
      {
        Scope s(spans, "core.reduce");
        out = fabric_->reduce_i32(updates_);
      }
      if (op == corrupt_operation_ && out.outputs.size() > 3 && !out.outputs[3].empty())
        out.outputs[3][out.outputs[3].size() / 2] ^= 1;
      std::optional<std::string> failure;
      {
        Scope s(spans, "bench.verify");
        failure = verify(out.outputs);
      }
      if (!failure) failure = check_reduction(*fabric_, out.tat);
      {
        Scope s(spans, "quant.dequantize");
        for (std::size_t w = 0; w < out.outputs.size() && w < dequantized_.size(); ++w)
          if (out.outputs[w].size() == elems_) quant::dequantize(out.outputs[w], f, dequantized_[w]);
      }
      r.elements = elems_;
      if (!out.tat.empty()) r.sim_s = reduction_sim_s(out.tat);
      record(r, "reduce_i32 #" + std::to_string(op), failure);
    } catch (const std::exception& e) {
      record(r, "reduce_i32 #" + std::to_string(op), describe(e));
    }
    if (counted) {
      r.counts = read();
      r.counts.subtract(before);
    }
    return r;
  }

  [[nodiscard]] bool sim_repeats() const override { return false; }
  [[nodiscard]] int sim_passes() const override { return 8; }

private:
  // Every worker must hold the element-wise wrapping int32 sum.
  std::optional<std::string> verify(const std::vector<std::vector<std::int32_t>>& outputs) {
    if (outputs.size() != updates_.size()) return "wrong number of outputs";
    std::fill(expected_.begin(), expected_.end(), 0);
    for (const auto& u : updates_) quant::accumulate_wrapping(expected_, u);
    for (std::size_t w = 0; w < outputs.size(); ++w)
      if (outputs[w] != expected_)
        return "worker " + std::to_string(w) + " output differs from the wrapping int32 sum";
    return std::nullopt;
  }

  std::uint64_t elems_;
  long corrupt_operation_;
  long operations_ = 0;
  std::unique_ptr<core::Fabric> fabric_;
  std::vector<std::vector<float>> gradients_;
  std::vector<std::vector<std::int32_t>> updates_;
  std::vector<std::vector<float>> dequantized_;
  std::vector<std::int32_t> expected_;
};

// --- strategy_sweep ----------------------------------------------------------

// A fixed list of independent points, each building its own fabric: the
// SwitchML and NCCL-ring training simulations for three models at 10 and
// 100 Gbps, plus Gloo ring, halving-doubling and dedicated streaming-PS
// all-reduces at 10 Gbps with and without 0.1% loss. A fresh fabric per point
// makes every point's result repeat exactly from pass to pass. The warm-up
// runs every point once at the smoke-test scale, which takes every code path
// once without paying for a full pass per set-up.
class StrategySweep final : public Workload {
public:
  enum class Kind { kSwitchmlTraining, kRingTraining, kRing, kHalvingDoubling, kStreamingPs };
  struct Point {
    Kind kind;
    std::string model; // training points
    BitsPerSecond rate;
    double loss = 0.0; // all-reduce points
  };
  struct Scale {
    double size_scale;  // of the training simulations
    int iterations;     // of the training simulations, the first unmeasured
    std::uint64_t allreduce_elems;
  };
  static constexpr Scale kFull{1.0 / 128, 3, 512 * 1024};
  static constexpr Scale kTiny{1.0 / 2048, 2, 16 * 1024};

  StrategySweep(const Options& o, SpanLog&) : seed_(o.seed), scale_(o.tiny ? kTiny : kFull) {
    for (const char* model : {"resnet50", "googlenet", "alexnet"})
      for (BitsPerSecond rate : {gbps(10), gbps(100)}) {
        points_.push_back({Kind::kSwitchmlTraining, model, rate});
        points_.push_back({Kind::kRingTraining, model, rate});
      }
    for (double loss : {0.0, 0.001})
      for (Kind k : {Kind::kRing, Kind::kHalvingDoubling, Kind::kStreamingPs})
        points_.push_back({k, {}, gbps(10), loss});
  }

  PassResult pass(SpanLog& spans, bool counted) override { return run(spans, counted, scale_); }
  PassResult warm_up(SpanLog& spans) override { return run(spans, false, kTiny); }

  [[nodiscard]] bool sim_repeats() const override { return true; }

private:
  PassResult run(SpanLog& spans, bool counted, const Scale& scale) {
    PassResult r;
    for (const Point& p : points_) {
      const std::string op = label(p);
      Scope point(spans, "point " + op);
      try {
        record(r, op, run_point(p, scale, spans, counted, r));
      } catch (const std::exception& e) {
        record(r, op, describe(e));
      }
    }
    return r;
  }

  static std::string label(const Point& p) {
    static const char* const kNames[] = {"switchml_training", "ring_training", "gloo_ring",
                                         "halving_doubling", "streaming_ps"};
    std::string s = kNames[static_cast<int>(p.kind)];
    if (!p.model.empty()) s += " " + p.model;
    s += " " + std::to_string(p.rate / gbps(1)) + "G";
    if (p.loss > 0.0) s += " loss";
    return s;
  }

  std::optional<std::string> run_point(const Point& p, const Scale& scale, SpanLog& spans,
                                       bool counted, PassResult& r) {
    switch (p.kind) {
      case Kind::kSwitchmlTraining:
      case Kind::kRingTraining: return run_training(p, scale, spans, counted, r);
      case Kind::kRing:
      case Kind::kHalvingDoubling: return run_transport_collective(p, scale, spans, counted, r);
      case Kind::kStreamingPs: return run_streaming_ps(p, scale, spans, counted, r);
    }
    return "unknown point";
  }

  std::optional<std::string> run_training(const Point& p, const Scale& scale, SpanLog& spans,
                                          bool counted, PassResult& r) {
    const perf::ModelSpec& spec = perf::model(p.model);
    framework::TrainingSimConfig cfg;
    cfg.rate = p.rate;
    cfg.size_scale = scale.size_scale;
    cfg.iterations = scale.iterations;
    if (counted)
      cfg.on_metrics = [&r](const MetricsRegistry& reg) {
        r.counts.add(LayerCounts::read(reg, 0, false));
      };
    framework::TrainingSimResult res;
    if (p.kind == Kind::kSwitchmlTraining) {
      Scope s(spans, "framework.switchml_train");
      res = framework::simulate_switchml_training(spec, cfg);
    } else {
      Scope s(spans, "framework.ring_train");
      res = framework::simulate_ring_training(spec, cfg, core::nccl_tcp(p.rate));
    }
    if (!valid_positive(res.images_per_s) || !valid_positive(res.iteration_ms))
      return "zero or non-finite images/s or iteration time";
    r.elements += training_elements(spec.parameters, scale.size_scale, scale.iterations - 1);
    r.sim_s += training_sim_s(res.iteration_ms, scale.iterations - 1);
    return std::nullopt;
  }

  std::optional<std::string> run_transport_collective(const Point& p, const Scale& scale,
                                                      SpanLog& spans, bool counted,
                                                      PassResult& r) {
    const core::BaselineProfile profile = core::gloo_tcp(p.rate);
    collectives::BaselineClusterConfig cfg;
    cfg.link_rate = p.rate;
    cfg.loss_prob = p.loss;
    cfg.nic = profile.nic;
    cfg.seed = seed_;
    std::optional<collectives::BaselineCluster> cluster;
    {
      Scope s(spans, "core.build");
      cluster.emplace(cfg);
    }
    const auto bytes = static_cast<std::int64_t>(scale.allreduce_elems) * 4;
    Time tat = 0;
    if (p.kind == Kind::kRing) {
      Scope s(spans, "collectives.ring");
      collectives::RingAllReduce ring(*cluster, profile.transport);
      tat = ring.run(bytes);
    } else {
      Scope s(spans, "collectives.halving_doubling");
      collectives::HalvingDoublingAllReduce hd(*cluster, profile.transport);
      tat = hd.run(bytes);
    }
    if (counted)
      r.counts.add(
          LayerCounts::read(cluster->metrics(), cluster->simulation().events_executed(), true));
    if (!valid_positive(static_cast<double>(tat))) return "zero or negative TAT";
    r.elements += scale.allreduce_elems;
    r.sim_s += static_cast<double>(tat) / 1e9;
    return std::nullopt;
  }

  std::optional<std::string> run_streaming_ps(const Point& p, const Scale& scale,
                                              SpanLog& spans, bool counted, PassResult& r) {
    collectives::StreamingPsConfig cfg;
    cfg.placement = collectives::StreamingPsPlacement::Dedicated;
    cfg.link_rate = p.rate;
    cfg.loss_prob = p.loss;
    cfg.nic = core::ps_host_nic(p.rate);
    cfg.timing_only = true;
    cfg.seed = seed_;
    std::optional<collectives::StreamingPsCluster> cluster;
    {
      Scope s(spans, "core.build");
      cluster.emplace(cfg);
    }
    std::vector<Time> tats;
    {
      Scope s(spans, "collectives.streaming_ps");
      tats = cluster->reduce_timing(scale.allreduce_elems);
    }
    if (counted)
      r.counts.add(
          LayerCounts::read(cluster->metrics(), cluster->simulation().events_executed(), true));
    if (static_cast<int>(tats.size()) != cfg.n_workers) return "wrong number of TATs";
    for (Time t : tats)
      if (!valid_positive(static_cast<double>(t))) return "zero or negative TAT";
    for (int w = 0; w < cfg.n_workers; ++w)
      if (cluster->worker(w).recovery().dead_declared != 0) return "unexpected dead declaration";
    r.elements += scale.allreduce_elems;
    r.sim_s += reduction_sim_s(tats);
    return std::nullopt;
  }

  std::uint64_t seed_;
  Scale scale_;
  std::vector<Point> points_;
};

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rack100g_timing", "hier10g_lossy_data",
                                                 "strategy_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, const Options& options,
                                        SpanLog& spans) {
  if (name == "rack100g_timing") return std::make_unique<RackTiming>(options, spans);
  if (name == "hier10g_lossy_data") return std::make_unique<HierLossyData>(options, spans);
  if (name == "strategy_sweep") return std::make_unique<StrategySweep>(options, spans);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

} // namespace perfbench
