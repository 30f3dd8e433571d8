#include "core/fabric.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

#include "collectives/ps_shard.hpp"
#include "common/attribution.hpp"
#include "common/tracing.hpp"
#include "core/fault.hpp"

namespace switchml::core {

namespace {
constexpr net::NodeId kSwitchId = 10'000;
constexpr net::NodeId kRootId = 20'000;
constexpr net::NodeId kPsShardIdBase = 1'000;
constexpr std::uint32_t kWorkerMulticastGroup = 1;
constexpr std::uint32_t kJobMulticastBase = 100;

template <class... Ts> struct overloaded : Ts... { using Ts::operator()...; };
template <class... Ts> overloaded(Ts...) -> overloaded<Ts...>;

void validate(const FabricConfig& config) {
  if (config.lossless && config.loss_prob > 0)
    throw std::invalid_argument("Fabric: lossless mode requires loss_prob == 0");
  std::visit(overloaded{
                 [](const RackSpec& s) {
                   if (s.n_workers < 1)
                     throw std::invalid_argument("Fabric: need at least one worker");
                 },
                 [](const MultiJobSpec& s) {
                   if (s.n_jobs < 1 || s.workers_per_job < 1)
                     throw std::invalid_argument("Fabric: invalid multi-job shape");
                 },
                 [](const HierarchySpec& s) {
                   if (s.racks < 1 || s.workers_per_rack < 1)
                     throw std::invalid_argument("Fabric: invalid hierarchy shape");
                 },
                 [](const TreeSpec& s) {
                   if (s.levels < 2)
                     throw std::invalid_argument("Fabric: tree needs at least 2 levels");
                   if (s.branching < 1 || s.workers_per_rack < 1)
                     throw std::invalid_argument("Fabric: invalid tree shape");
                 },
                 [](const IrregularSpec& s) { validate_irregular(s); },
                 [](const StreamingPsSpec& s) {
                   if (s.n_workers < 1)
                     throw std::invalid_argument("Fabric: need at least one worker");
                 },
             },
             config.topology);
}
} // namespace

void validate_irregular(const IrregularSpec& spec) {
  const auto m = static_cast<int>(spec.switch_parent.size());
  if (m < 1 || spec.switch_parent[0] != -1)
    throw std::invalid_argument(
        "IrregularSpec: switch_parent[0] must be -1 (switch 0 is the root)");
  for (int i = 1; i < m; ++i) {
    const int p = spec.switch_parent[static_cast<std::size_t>(i)];
    if (p < 0 || p >= i)
      throw std::invalid_argument(
          "IrregularSpec: switch_parent[" + std::to_string(i) + "] = " + std::to_string(p) +
          " must name an earlier switch (0 <= parent < " + std::to_string(i) +
          "), so the adjacency is an acyclic single-rooted tree");
  }
  if (spec.worker_switch.empty())
    throw std::invalid_argument("IrregularSpec: need at least one worker");
  std::vector<bool> has_switch_child(static_cast<std::size_t>(m), false);
  std::vector<bool> has_worker_child(static_cast<std::size_t>(m), false);
  for (int i = 1; i < m; ++i)
    has_switch_child[static_cast<std::size_t>(spec.switch_parent[static_cast<std::size_t>(i)])] =
        true;
  for (std::size_t w = 0; w < spec.worker_switch.size(); ++w) {
    const int s = spec.worker_switch[w];
    if (s < 0 || s >= m)
      throw std::invalid_argument("IrregularSpec: worker_switch[" + std::to_string(w) + "] = " +
                                  std::to_string(s) + " out of range (spec has " +
                                  std::to_string(m) + " switches)");
    if (w > 0 && s < spec.worker_switch[w - 1])
      throw std::invalid_argument(
          "IrregularSpec: worker_switch must be non-decreasing (worker_switch[" +
          std::to_string(w) + "] = " + std::to_string(s) + " after " +
          std::to_string(spec.worker_switch[w - 1]) +
          "); grouping workers by switch keeps each leaf switch's global worker ids "
          "consecutive, which the switch's seen bitmap indexing (wid - wid_base) requires");
    has_worker_child[static_cast<std::size_t>(s)] = true;
  }
  for (int i = 0; i < m; ++i) {
    if (has_switch_child[static_cast<std::size_t>(i)] &&
        has_worker_child[static_cast<std::size_t>(i)])
      throw std::invalid_argument(
          "IrregularSpec: switch " + std::to_string(i) +
          " has both worker and switch children; a switch's children must be all workers or "
          "all switches (its aggregation pool counts contributions of one kind)");
    if (!has_switch_child[static_cast<std::size_t>(i)] &&
        !has_worker_child[static_cast<std::size_t>(i)])
      throw std::invalid_argument("IrregularSpec: switch " + std::to_string(i) +
                                  " has no children (every switch must aggregate something)");
  }
}

Fabric::Fabric(FabricConfig config) : config_(std::move(config)) {
  validate(config_);
  // Everything constructed while the builder runs registers its counters —
  // including the fault injector, whose plan needs the built nodes/links.
  MetricsRegistry::Scope scope(&metrics_);
  TopologyBuilder(*this).build();
  install_recovery();
  install_observability();
  if (!config_.faults.empty()) faults_ = std::make_unique<FaultInjector>(*this, config_.faults);
}

void Fabric::install_observability() {
  if (inttel::kCompiledIn && config_.int_mode != inttel::kModeOff) {
    // The localizer's verdicts print node names, not raw ids.
    std::map<std::uint32_t, std::string> names;
    for (auto& w : workers_) names.emplace(w->id(), w->name());
    for (auto& s : switches_) names.emplace(s->id(), s->name());
    int_localizer_ = std::make_unique<inttel::FaultLocalizer>(
        inttel::FaultLocalizer::Config{},
        [names = std::move(names)](std::uint32_t node) {
          auto it = names.find(node);
          return it != names.end() ? it->second : "node-" + std::to_string(node);
        });
    for (auto& w : workers_) w->set_int_localizer(int_localizer_.get());
    if (auto* ireg = MetricsRegistry::current()) {
      for (std::size_t k = 0; k < inttel::FaultLocalizer::kKindCount; ++k) {
        const auto kind = static_cast<inttel::FaultLocalizer::Verdict::Kind>(k);
        ireg->add_counter(std::string("int.verdicts.") + inttel::FaultLocalizer::to_string(kind),
                          [this, kind] { return int_localizer_->count(kind); });
      }
    }
  }
  // Registered ONLY when the ambient sink/ledger exists at construction, so
  // fabrics built without them keep a bit-identical registry (and timeline).
  auto* reg = MetricsRegistry::current();
  if (reg == nullptr) return;
  if (trace::TraceSink* sink = trace::TraceSink::current())
    reg->add_counter("trace.dropped_events", [sink] { return sink->total_drops(); });
  attr::SpanLedger* ledger = attr::SpanLedger::current();
  if (ledger == nullptr) return;
  for (std::size_t c = 0; c < attr::kComponentCount; ++c) {
    const auto comp = static_cast<attr::Component>(c);
    reg->add_counter(std::string("attr.total.") + attr::to_string(comp) + "_ns",
                     [ledger, comp] { return ledger->total(comp); });
  }
  reg->add_counter("attr.chunks_closed", [ledger] { return ledger->chunks_closed(); });
  reg->add_counter("attr.max_residual_ns", [ledger] { return ledger->max_residual_ns(); });
  reg->add_counter("attr.records_dropped", [ledger] { return ledger->records_dropped(); });
  for (auto& w : workers_) {
    const std::string p = "attr." + w->name() + ".";
    const std::uint32_t node = w->id();
    for (std::size_t c = 0; c < attr::kComponentCount; ++c) {
      const auto comp = static_cast<attr::Component>(c);
      reg->add_counter(p + attr::to_string(comp) + "_ns",
                       [ledger, node, comp] { return ledger->node_total(node, comp); });
    }
  }
}

Fabric::~Fabric() = default;

void Fabric::install_recovery() {
  if (switches_.empty()) return; // a streaming PS has no switch to declare dead
  if (auto* reg = MetricsRegistry::current()) {
    reg->add_counter("recovery.fallbacks", [this] { return fallbacks_; });
    reg->add_counter("recovery.fallback_replay_elems",
                     [this] { return fallback_replay_elems_; });
  }
  for (auto& w : workers_) w->set_switch_dead_handler([this] { on_switch_dead(); });
}

void Fabric::on_switch_dead() {
  if (fallback_pending_) return;
  fallback_pending_ = true;
  // Stop every worker's transmissions so the simulation drains; the pending
  // reduce_* call picks up the fallback once run() returns.
  for (auto& w : workers_) w->abort_reduction();
}

Fabric::FallbackPlan Fabric::collect_fallback_plan(std::uint64_t total_elems) {
  if (n_jobs_ != 1)
    throw std::runtime_error(
        "Fabric: switch declared dead on a multi-job fabric — the streaming-PS fallback "
        "replays one job's chunks and cannot arbitrate several tenants; rerun the surviving "
        "jobs on single-job fabrics");
  FallbackPlan plan;
  plan.drained_at = sim_.now();
  for (auto& w : workers_) {
    const auto offs = w->unconsumed_chunks();
    plan.offsets.insert(plan.offsets.end(), offs.begin(), offs.end());
  }
  std::sort(plan.offsets.begin(), plan.offsets.end());
  plan.offsets.erase(std::unique(plan.offsets.begin(), plan.offsets.end()),
                     plan.offsets.end());
  for (std::uint64_t off : plan.offsets)
    plan.replay_elems += std::min<std::uint64_t>(config_.elems_per_packet, total_elems - off);
  ++fallbacks_;
  fallback_replay_elems_ += plan.replay_elems;
  trace::emit(trace::kCatFault, sim_.now(), root().id(), "fallback_begin",
              {"chunks", static_cast<std::int64_t>(plan.offsets.size())},
              {"elems", static_cast<std::int64_t>(plan.replay_elems)});
  return plan;
}

void Fabric::finish_fallback() {
  for (auto& w : workers_) w->finish_aborted_reduction();
  fallback_pending_ = false;
}

void Fabric::replay_fallback(std::uint64_t total_elems, const std::vector<Time>& start,
                             std::vector<Time>& tat, const FallbackReplay& replay,
                             const FallbackSettle& settle) {
  const FallbackPlan plan = collect_fallback_plan(total_elems);
  std::vector<Time> ps_tat;
  {
    // The inner cluster's node ids collide with the fabric's and it runs on
    // its own clock; mask the ledger and the trace sink so replay-internal
    // spans and events cannot pollute the job's attribution or its trace
    // (the fallback_begin event marks the replay instead).
    attr::SpanLedger::Scope mask(nullptr);
    trace::TraceSink::Scope trace_mask(nullptr);
    FabricParams params = config_;
    params.faults = {};
    params.seed += 9001; // distinct RNG stream for the replay
    Fabric ps(FabricConfig(params, StreamingPsSpec{workers_per_job_}));
    ps_tat = replay(ps, plan);
  }
  for (std::size_t i = 0; i < tat.size(); ++i) {
    if (tat[i] >= 0) continue; // completed on the switch path before the abort
    if (settle) settle(i, plan);
    tat[i] = (plan.drained_at - start[i]) + config_.fallback_reprovision + ps_tat[i];
    // The worker's surviving chunks were parked in kFallback at the abort;
    // they complete when the replay delivers, possibly past the fabric clock.
    attr::close_all(workers_[i]->id(), start[i] + tat[i]);
  }
  finish_fallback();
}

void Fabric::fallback_data(const std::vector<std::vector<std::int32_t>>& updates,
                           const std::vector<Time>& start, DataReduceResult& r) {
  const std::uint64_t total_elems = updates.empty() ? 0 : updates.front().size();
  const auto chunk_elems = [&](std::uint64_t off) {
    return std::min<std::uint64_t>(config_.elems_per_packet, total_elems - off);
  };
  std::vector<std::vector<std::int32_t>> replayed;
  replay_fallback(
      total_elems, start, r.tat,
      [&](Fabric& ps, const FallbackPlan& plan) {
        // Replay the union of unconsumed chunks, compacted into one contiguous
        // vector per worker. int32 sums are order-independent and
        // overflow-wrapping, and 16-bit values pass through the switch's
        // conversion tables, so the PS result is bit-identical to what the
        // switch would have produced.
        std::vector<std::vector<std::int32_t>> compact(updates.size());
        for (std::size_t i = 0; i < updates.size(); ++i) {
          compact[i].reserve(plan.replay_elems);
          for (std::uint64_t off : plan.offsets) {
            const auto first = updates[i].begin() + static_cast<std::ptrdiff_t>(off);
            compact[i].insert(compact[i].end(), first,
                              first + static_cast<std::ptrdiff_t>(chunk_elems(off)));
          }
        }
        auto psr = ps.reduce_i32(compact);
        replayed = std::move(psr.outputs);
        return psr.tat;
      },
      [&](std::size_t i, const FallbackPlan& plan) {
        // Scatter the replayed sums back to their offsets. Chunks this worker
        // DID consume before the abort are overwritten with the identical value.
        std::size_t pos = 0;
        for (std::uint64_t off : plan.offsets) {
          const auto c = chunk_elems(off);
          std::copy_n(replayed[i].begin() + static_cast<std::ptrdiff_t>(pos), c,
                      r.outputs[i].begin() + static_cast<std::ptrdiff_t>(off));
          pos += c;
        }
      });
}

void Fabric::set_loss_prob(double p) {
  for (auto& l : links_) l->set_loss_prob(p);
}

std::vector<Time> Fabric::reduce_timing(std::uint64_t total_elems) {
  if (!config_.timing_only)
    throw std::logic_error("Fabric::reduce_timing requires timing_only config");
  std::vector<Time> start(workers_.size()), tat(workers_.size(), -1);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    start[i] = sim_.now();
    workers_[i]->start_reduction(total_elems, [this, &start, &tat, i] {
      tat[i] = sim_.now() - start[i];
    });
  }
  sim_.run();
  if (fallback_pending_) {
    replay_fallback(
        total_elems, start, tat,
        [](Fabric& ps, const FallbackPlan& plan) {
          return ps.reduce_timing(plan.replay_elems);
        },
        nullptr);
    return tat;
  }
  for (Time t : tat)
    if (t < 0) throw std::runtime_error("Fabric::reduce_timing: reduction did not complete");
  return tat;
}

std::vector<std::vector<Time>> Fabric::reduce_timing_all(std::uint64_t total_elems) {
  std::vector<Time> tat = reduce_timing(total_elems);
  const auto per_job = static_cast<std::size_t>(workers_per_job_);
  std::vector<std::vector<Time>> out(static_cast<std::size_t>(n_jobs_));
  for (std::size_t i = 0; i < tat.size(); ++i) out[i / per_job].push_back(tat[i]);
  return out;
}

Fabric::DataReduceResult Fabric::reduce_i32(
    const std::vector<std::vector<std::int32_t>>& updates) {
  return reduce_i32_job(/*job=*/0, updates);
}

Fabric::DataReduceResult Fabric::reduce_i32_job(
    int job, const std::vector<std::vector<std::int32_t>>& updates) {
  if (config_.timing_only)
    throw std::logic_error("Fabric::reduce_i32 requires a data-mode cluster");
  if (job < 0 || job >= n_jobs_)
    throw std::invalid_argument("Fabric::reduce_i32: no such job");
  if (static_cast<int>(updates.size()) != workers_per_job_)
    throw std::invalid_argument("Fabric::reduce_i32: one update per worker required");

  const std::size_t base = static_cast<std::size_t>(job) * static_cast<std::size_t>(workers_per_job_);
  DataReduceResult r;
  r.outputs.resize(updates.size());
  r.tat.assign(updates.size(), -1);
  std::vector<Time> start(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    r.outputs[i].assign(updates[i].size(), 0);
    start[i] = sim_.now();
    workers_[base + i]->start_reduction(updates[i], r.outputs[i], [this, &start, &r, i] {
      r.tat[i] = sim_.now() - start[i];
    });
  }
  sim_.run();
  if (fallback_pending_) {
    fallback_data(updates, start, r);
    return r;
  }
  for (Time t : r.tat)
    if (t < 0) throw std::runtime_error("Fabric::reduce_i32: reduction did not complete");
  return r;
}

// --- the builder -------------------------------------------------------------

void TopologyBuilder::build() {
  std::visit(overloaded{
                 [&](const RackSpec& s) {
                   f_.n_jobs_ = 1;
                   f_.workers_per_job_ = s.n_workers;
                   build_star(1, s.n_workers, kWorkerMulticastGroup);
                 },
                 [&](const MultiJobSpec& s) {
                   f_.n_jobs_ = s.n_jobs;
                   f_.workers_per_job_ = s.workers_per_job;
                   build_star(s.n_jobs, s.workers_per_job, kJobMulticastBase);
                 },
                 [&](const HierarchySpec& s) {
                   levels_ = 2;
                   branching_ = s.racks;
                   workers_per_rack_ = s.workers_per_rack;
                   hierarchy_naming_ = true;
                   f_.n_jobs_ = 1;
                   f_.workers_per_job_ = s.racks * s.workers_per_rack;
                   int next_worker = 0;
                   build_subtree(0, nullptr, 0, next_worker);
                 },
                 [&](const TreeSpec& s) {
                   levels_ = s.levels;
                   branching_ = s.branching;
                   workers_per_rack_ = s.workers_per_rack;
                   f_.n_jobs_ = 1;
                   f_.workers_per_job_ = s.workers_per_rack;
                   for (int l = 1; l < s.levels; ++l) f_.workers_per_job_ *= s.branching;
                   int next_worker = 0;
                   build_subtree(0, nullptr, 0, next_worker);
                 },
                 [&](const IrregularSpec& s) {
                   f_.n_jobs_ = 1;
                   f_.workers_per_job_ = static_cast<int>(s.worker_switch.size());
                   build_irregular(s);
                 },
                 [&](const StreamingPsSpec& s) {
                   f_.n_jobs_ = 1;
                   f_.workers_per_job_ = s.n_workers;
                   build_streaming_ps(s);
                 },
             },
             f_.config_.topology);
}

worker::WorkerConfig TopologyBuilder::worker_config(int wid, net::NodeId switch_id) const {
  worker::WorkerConfig wc;
  wc.wid = static_cast<std::uint16_t>(wid);
  // The job-wide contributor count in every shape (StreamManager averages by
  // it); the worker protocol itself never reads it.
  wc.n_workers = f_.workers_per_job_;
  wc.pool_size = params_.pool_size;
  wc.elems_per_packet = params_.elems_per_packet;
  wc.wire_elem_bytes = params_.wire_elem_bytes;
  wc.retransmit_timeout = params_.retransmit_timeout;
  wc.adaptive_rto = params_.adaptive_rto;
  wc.nic = params_.nic;
  wc.transport = params_.transport;
  wc.rdma = params_.rdma;
  wc.switch_id = switch_id;
  wc.timing_only = params_.timing_only;
  wc.int_mode = params_.int_mode;
  wc.lossless = params_.lossless;
  // Lossless workers have no timers, so the timeout-driven escalation stages
  // can never fire; keep them disabled explicitly. A streaming PS never
  // restarts (nothing to probe) and has no fallback of its own.
  const bool escalate =
      !params_.lossless && !std::holds_alternative<StreamingPsSpec>(f_.config_.topology);
  wc.sync_after = escalate ? params_.sync_after : 0;
  wc.dead_after = escalate ? params_.dead_after : 0;
  return wc;
}

swprog::AggregationConfig TopologyBuilder::switch_config(int n_children,
                                                         std::uint32_t multicast_group) const {
  swprog::AggregationConfig sc;
  sc.n_workers = n_children;
  sc.pool_size = params_.pool_size;
  sc.elems_per_packet = params_.elems_per_packet;
  sc.timing_only = params_.timing_only;
  sc.mtu_emulation = params_.mtu_emulation;
  sc.multicast_group = multicast_group;
  sc.sram_budget_bytes = params_.sram_budget_bytes;
  sc.ablate_shadow_copy = params_.ablate_shadow_copy;
  sc.ablate_seen_bitmap = params_.ablate_seen_bitmap;
  sc.fp16_frac_bits = params_.fp16_frac_bits;
  sc.lossless = params_.lossless;
  return sc;
}

net::LinkConfig TopologyBuilder::link_config(BitsPerSecond rate) const {
  net::LinkConfig lc;
  lc.rate = rate;
  lc.propagation = params_.propagation;
  lc.queue_limit_bytes = params_.queue_limit_bytes;
  lc.loss_prob = params_.loss_prob;
  return lc;
}

void TopologyBuilder::build_star(int n_jobs, int workers_per_job,
                                 std::uint32_t group_base) {
  // Job 0 is admitted by the switch constructor; further jobs go through the
  // §6 admission control below.
  auto sw = std::make_unique<swprog::AggregationSwitch>(
      f_.sim_, kSwitchId, "switch", switch_config(workers_per_job, group_base),
      swprog::SwitchRole::Standalone, params_.switch_latency);

  for (int j = 1; j < n_jobs; ++j) {
    swprog::JobParams jp;
    jp.n_workers = workers_per_job;
    jp.pool_size = params_.pool_size;
    jp.wid_base = static_cast<std::uint16_t>(j * workers_per_job);
    jp.multicast_group = group_base + static_cast<std::uint32_t>(j);
    if (!sw->admit_job(static_cast<std::uint8_t>(j), jp))
      throw std::runtime_error("Fabric: job " + std::to_string(j) +
                               " rejected by admission control (SRAM budget)");
  }

  const net::LinkConfig lc = link_config(params_.link_rate);
  for (int j = 0; j < n_jobs; ++j) {
    std::vector<int> ports;
    for (int i = 0; i < workers_per_job; ++i) {
      const int g = j * workers_per_job + i; // global worker index == port
      worker::WorkerConfig wc = worker_config(g, sw->id());
      wc.job = static_cast<std::uint8_t>(j);
      const std::string name = n_jobs > 1
                                   ? "j" + std::to_string(j) + "-worker-" + std::to_string(i)
                                   : "worker-" + std::to_string(g);
      auto w = std::make_unique<worker::Worker>(f_.sim_, static_cast<net::NodeId>(g), name, wc);
      auto link = std::make_unique<net::Link>(f_.sim_, lc, *w, /*port_a=*/0, *sw, /*port_b=*/g,
                                              params_.seed + static_cast<std::uint64_t>(g));
      w->set_uplink(*link);
      sw->attach(g, *link);
      ports.push_back(g);
      f_.workers_.push_back(std::move(w));
      f_.links_.push_back(std::move(link));
    }
    sw->add_multicast_group(group_base + static_cast<std::uint32_t>(j), ports);
  }
  f_.switches_.push_back(std::move(sw));
}

swprog::AggregationSwitch* TopologyBuilder::build_subtree(int level,
                                                          swprog::AggregationSwitch* parent,
                                                          int index_at_parent,
                                                          int& next_worker) {
  const bool bottom = level == levels_ - 1;
  const int n_children = bottom ? workers_per_rack_ : branching_;

  swprog::AggregationConfig sc = switch_config(n_children, kWorkerMulticastGroup);
  // Bottom switches see global worker ids; internal switches see their
  // children's leaf_wid (0..branching-1).
  sc.wid_base = bottom ? static_cast<std::uint16_t>(next_worker) : 0;
  const auto role = parent == nullptr ? swprog::SwitchRole::Root : swprog::SwitchRole::Leaf;
  if (parent != nullptr) {
    sc.parent_port = n_children; // one past the child ports
    sc.leaf_wid = static_cast<std::uint16_t>(index_at_parent);
  }
  net::NodeId id;
  std::string name;
  if (hierarchy_naming_) {
    id = parent == nullptr ? kRootId : kSwitchId + static_cast<net::NodeId>(index_at_parent);
    name = parent == nullptr ? "root" : "leaf-" + std::to_string(index_at_parent);
  } else {
    id = next_switch_id_++;
    // `index_at_parent` is only sibling-unique; include the node id so two
    // same-level switches under different parents get distinct names (metric
    // series names derive from node names and must not collide).
    name = "sw-l" + std::to_string(level) + "-n" + std::to_string(id);
  }
  auto owned = std::make_unique<swprog::AggregationSwitch>(f_.sim_, id, name, sc, role,
                                                           params_.switch_latency);
  swprog::AggregationSwitch* sw = owned.get();
  f_.switches_.push_back(std::move(owned));

  const net::LinkConfig lc = link_config(params_.link_rate);
  std::vector<int> child_ports;
  for (int c = 0; c < n_children; ++c) {
    if (bottom) {
      const int g = next_worker++;
      auto w = std::make_unique<worker::Worker>(f_.sim_, static_cast<net::NodeId>(g),
                                                "worker-" + std::to_string(g),
                                                worker_config(g, sw->id()));
      auto link = std::make_unique<net::Link>(f_.sim_, lc, *w, 0, *sw, c,
                                              params_.seed + static_cast<std::uint64_t>(g));
      w->set_uplink(*link);
      sw->attach(c, *link);
      f_.workers_.push_back(std::move(w));
      f_.links_.push_back(std::move(link));
    } else {
      swprog::AggregationSwitch* child = build_subtree(level + 1, sw, c, next_worker);
      const int child_parent_port =
          level + 1 == levels_ - 1 ? workers_per_rack_ : branching_;
      // Per-link RNG seeds predate unification; both schemes are kept so loss
      // experiments reproduce bit-for-bit against pre-refactor runs.
      const std::uint64_t seed =
          hierarchy_naming_ ? params_.seed + 1000 + static_cast<std::uint64_t>(c)
                            : params_.seed + 7000 + static_cast<std::uint64_t>(child->id());
      auto link = std::make_unique<net::Link>(f_.sim_, link_config(uplink_rate()), *child,
                                              child_parent_port, *sw, c, seed);
      child->attach(child_parent_port, *link);
      sw->attach(c, *link);
      f_.links_.push_back(std::move(link));
    }
    child_ports.push_back(c);
  }
  sw->add_multicast_group(kWorkerMulticastGroup, child_ports);
  return sw;
}

void TopologyBuilder::build_irregular(const IrregularSpec& spec) {
  const auto m = static_cast<int>(spec.switch_parent.size());
  const auto n_workers = static_cast<int>(spec.worker_switch.size());

  // Child lists in index order; ports at a switch follow these orders.
  std::vector<std::vector<int>> sw_children(static_cast<std::size_t>(m));
  std::vector<std::vector<int>> worker_children(static_cast<std::size_t>(m));
  for (int i = 1; i < m; ++i)
    sw_children[static_cast<std::size_t>(spec.switch_parent[static_cast<std::size_t>(i)])]
        .push_back(i);
  for (int w = 0; w < n_workers; ++w)
    worker_children[static_cast<std::size_t>(spec.worker_switch[static_cast<std::size_t>(w)])]
        .push_back(w);

  const auto n_children_of = [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    return static_cast<int>(worker_children[idx].empty() ? sw_children[idx].size()
                                                         : worker_children[idx].size());
  };

  // Switches in spec index order, so Fabric::switch_at(i) is spec switch i.
  for (int i = 0; i < m; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const bool leaf_switch = !worker_children[idx].empty();
    swprog::AggregationConfig sc = switch_config(n_children_of(i), kWorkerMulticastGroup);
    // Like tree bottoms: leaf switches see global worker ids (consecutive by
    // the non-decreasing worker_switch rule); internal ones their children's
    // leaf_wid.
    sc.wid_base = leaf_switch ? static_cast<std::uint16_t>(worker_children[idx].front()) : 0;
    const int parent = spec.switch_parent[idx];
    auto role = swprog::SwitchRole::Standalone;
    if (m > 1) role = parent < 0 ? swprog::SwitchRole::Root : swprog::SwitchRole::Leaf;
    if (parent >= 0) {
      sc.parent_port = n_children_of(i); // one past the child ports
      const auto& siblings = sw_children[static_cast<std::size_t>(parent)];
      sc.leaf_wid = static_cast<std::uint16_t>(
          std::find(siblings.begin(), siblings.end(), i) - siblings.begin());
    }
    f_.switches_.push_back(std::make_unique<swprog::AggregationSwitch>(
        f_.sim_, next_switch_id_ + static_cast<net::NodeId>(i), "sw-" + std::to_string(i), sc,
        role, params_.switch_latency));
  }

  // Worker links first (worker index order, tree-style seeds), then switch
  // uplinks (child index order, tree-style seeds keyed by the child's id) —
  // the layout documented at the declaration.
  for (int w = 0; w < n_workers; ++w) {
    const auto s = static_cast<std::size_t>(spec.worker_switch[static_cast<std::size_t>(w)]);
    auto& sw = *f_.switches_[s];
    const auto& group = worker_children[s];
    const int port = static_cast<int>(std::find(group.begin(), group.end(), w) - group.begin());
    auto wk = std::make_unique<worker::Worker>(
        f_.sim_, static_cast<net::NodeId>(w), "worker-" + std::to_string(w),
        worker_config(w, sw.id()));
    auto link = std::make_unique<net::Link>(f_.sim_, link_config(params_.link_rate), *wk, 0, sw,
                                            port, params_.seed + static_cast<std::uint64_t>(w));
    wk->set_uplink(*link);
    sw.attach(port, *link);
    f_.workers_.push_back(std::move(wk));
    f_.links_.push_back(std::move(link));
  }
  for (int i = 1; i < m; ++i) {
    auto& child = *f_.switches_[static_cast<std::size_t>(i)];
    const int parent = spec.switch_parent[static_cast<std::size_t>(i)];
    auto& par = *f_.switches_[static_cast<std::size_t>(parent)];
    const auto& siblings = sw_children[static_cast<std::size_t>(parent)];
    const int port = static_cast<int>(std::find(siblings.begin(), siblings.end(), i) -
                                      siblings.begin());
    const int child_parent_port = n_children_of(i);
    auto link = std::make_unique<net::Link>(
        f_.sim_, link_config(uplink_rate()), child, child_parent_port, par, port,
        params_.seed + 7000 + static_cast<std::uint64_t>(child.id()));
    child.attach(child_parent_port, *link);
    par.attach(port, *link);
    f_.links_.push_back(std::move(link));
  }

  for (int i = 0; i < m; ++i) {
    std::vector<int> child_ports(static_cast<std::size_t>(n_children_of(i)));
    for (std::size_t p = 0; p < child_ports.size(); ++p) child_ports[p] = static_cast<int>(p);
    f_.switches_[static_cast<std::size_t>(i)]->add_multicast_group(kWorkerMulticastGroup,
                                                                   child_ports);
  }
}

void TopologyBuilder::build_streaming_ps(const StreamingPsSpec& spec) {
  const int n = spec.n_workers;
  const bool dedicated = spec.placement == StreamingPsPlacement::Dedicated;
  f_.hub_ = std::make_unique<net::L2Switch>(f_.sim_, kSwitchId, "fabric", params_.switch_latency);

  std::vector<net::NodeId> worker_ids;
  for (int i = 0; i < n; ++i) worker_ids.push_back(static_cast<net::NodeId>(i));
  // Slot idx is served by PS shard idx % n (all n shards exist in both
  // placements; colocated shard i lives on worker host i).
  const auto shard_of = [dedicated, n](std::uint32_t idx) {
    const int shard = static_cast<int>(idx) % n;
    return static_cast<net::NodeId>(dedicated ? kPsShardIdBase + shard : shard);
  };

  const net::LinkConfig lc = link_config(params_.link_rate);
  for (int i = 0; i < n; ++i) {
    const worker::WorkerConfig wc = worker_config(i, kSwitchId);
    std::unique_ptr<worker::Worker> w;
    if (dedicated)
      w = std::make_unique<worker::Worker>(f_.sim_, static_cast<net::NodeId>(i),
                                           "worker-" + std::to_string(i), wc);
    else
      w = std::make_unique<collectives::PsColocatedHost>(
          f_.sim_, static_cast<net::NodeId>(i), "host-" + std::to_string(i), wc, n,
          params_.fp16_frac_bits, worker_ids);
    w->set_destination_resolver(shard_of);
    auto link = std::make_unique<net::Link>(f_.sim_, lc, *w, 0, *f_.hub_, i,
                                            params_.seed + static_cast<std::uint64_t>(i));
    w->set_uplink(*link);
    f_.hub_->attach(i, *link);
    f_.workers_.push_back(std::move(w));
    f_.links_.push_back(std::move(link));
  }
  if (!dedicated) return;
  for (int j = 0; j < n; ++j) {
    auto ps = std::make_unique<collectives::PsShardNode>(
        f_.sim_, kPsShardIdBase + static_cast<net::NodeId>(j), "ps-" + std::to_string(j),
        params_.nic, params_.transport, params_.rdma, n, n, params_.pool_size,
        params_.timing_only, params_.fp16_frac_bits, worker_ids);
    auto link = std::make_unique<net::Link>(f_.sim_, lc, *ps, 0, *f_.hub_, n + j,
                                            params_.seed + 500 + static_cast<std::uint64_t>(j));
    ps->set_uplink(*link);
    f_.hub_->attach(n + j, *link);
    f_.ps_shards_.push_back(std::move(ps));
    f_.links_.push_back(std::move(link));
  }
}

} // namespace switchml::core
