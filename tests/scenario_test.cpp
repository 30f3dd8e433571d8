// Scenario engine tests: strict-loader semantics (unknown keys, JSON-path
// errors, eager FaultPlan validation), normalized round-trips, shape_counts
// vs built fabrics, the IrregularSpec build path — and the corpus contract:
// every scenarios/*.json is pinned byte-for-byte to its in-code definition,
// and every ported bench configuration reproduces its committed baseline
// metric bit-identically (BenchReport::kSimTol).
//
// Regenerating the corpus after an intentional schema or baseline change:
//   SWITCHML_REGEN_CORPUS=1 ./tests/scenario_test --gtest_filter='*Regenerate*'
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "core/fault.hpp"
#include "scenario/fuzz.hpp"

namespace switchml::scenario {
namespace {

std::string scenario_dir() { return SWITCHML_SCENARIO_DIR; }
std::string baseline_dir() { return SWITCHML_BASELINE_DIR; }

// --- loader semantics --------------------------------------------------------

Scenario minimal(const std::string& topo = R"({"kind": "rack", "workers": 4})") {
  return load_string(R"({"schema_version": 1, "name": "t", "topology": )" + topo + "}");
}

void expect_load_error(const std::string& text, const std::string& needle) {
  try {
    (void)load_string(text);
    FAIL() << "loaded: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error \"" << e.what() << "\" lacks \"" << needle << "\"";
  }
}

TEST(ScenarioLoader, MinimalScenarioGetsDefaults) {
  const Scenario s = minimal();
  EXPECT_EQ(s.fabric.pool_size, 128u); // for_rate rule at the default 10G
  EXPECT_EQ(s.fabric.link_rate, gbps(10));
  EXPECT_EQ(s.fabric.elems_per_packet, net::kDefaultElemsPerPacket);
  EXPECT_EQ(s.fabric.transport, net::kDefaultTransport);
  EXPECT_TRUE(s.workload.timing);
  EXPECT_EQ(s.workload.tensor_elems, 256u * 1024u);
  EXPECT_EQ(std::get<core::RackSpec>(s.topology).n_workers, 4);
}

TEST(ScenarioLoader, RateDerivedDefaults) {
  const Scenario s = load_string(R"({"schema_version": 1, "name": "t",
    "topology": {"kind": "rack"},
    "fabric": {"link_rate_gbps": 100, "mtu_emulation": true}})");
  EXPECT_EQ(s.fabric.pool_size, 512u); // >= 100G rule
  EXPECT_EQ(s.fabric.elems_per_packet, net::kMtuElemsPerPacket);
  EXPECT_EQ(s.fabric.nic.per_packet_tx, core::switchml_worker_nic(gbps(100)).per_packet_tx);
}

TEST(ScenarioLoader, UnknownKeysRejectedWithPathAndValidKeys) {
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack"}, "wokload": {}})",
                    "$.wokload: unknown key");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "wrokers": 4}})",
                    "$.topology.wrokers: unknown key");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack"},
                        "fabric": {"pool_sze": 8}})",
                    "valid keys here");
}

TEST(ScenarioLoader, TypeErrorsNameThePath) {
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": "eight"}})",
                    "$.topology.workers: expected an integer, got string");
  expect_load_error(R"({"schema_version": 1, "name": "t", "topology": []})",
                    "$.topology: expected an object, got array");
  expect_load_error(R"({"schema_version": 1, "name": 7, "topology": {"kind": "rack"}})",
                    "$.name");
}

TEST(ScenarioLoader, SchemaVersionAndNameRequired) {
  expect_load_error(R"({"name": "t", "topology": {"kind": "rack"}})", "schema_version");
  expect_load_error(R"({"schema_version": 2, "name": "t", "topology": {"kind": "rack"}})",
                    "unsupported version 2");
  expect_load_error(R"({"schema_version": 1, "topology": {"kind": "rack"}})",
                    "missing required key \"name\"");
}

TEST(ScenarioLoader, BadTopologyRejected) {
  expect_load_error(R"({"schema_version": 1, "name": "t", "topology": {"kind": "ring"}})",
                    "unknown topology kind \"ring\"");
  // IrregularSpec structural errors surface under $.topology.
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "irregular",
                                     "switch_parent": [0],
                                     "worker_switch": [0, 0]}})",
                    "$.topology");
}

TEST(ScenarioLoader, FaultPlanValidatedEagerlyWithPath) {
  // PR 5 message text, behind the $.faults prefix — no fabric was built.
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "faults": {"stragglers": [
                          {"worker": 9, "factor": 4.0}]}})",
                    "$.faults: FaultPlan: stragglers[0]");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "faults": {"flap_cycles": [
                          {"link": 0, "period_ns": 1000, "duty_down": 1.5}]}})",
                    "duty_down in (0, 1)");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "faults": {"flaps": [
                          {"link": 2, "down_ns": 100, "up_ns": 900},
                          {"link": 2, "down_ns": 500, "up_ns": 1500}]}})",
                    "overlaps flaps[0]");
  // Lossless fabrics reject loss-inducing classes at load time too.
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "fabric": {"lossless": true},
                        "faults": {"bursts": [
                          {"p_enter": 0.01, "p_exit": 0.3, "loss_bad": 0.5}]}})",
                    "$.faults: FaultPlan:");
}

// Satellite (b): the gaps are now caught eagerly by validate_fault_plan
// itself, independent of the loader and of injector arming.
TEST(FaultPlanValidation, DutyAndOverlapCaughtBeforeArming) {
  const core::FaultTargets t{4, 4, 1};
  core::FaultPlan bad_duty;
  bad_duty.flap_cycles.push_back({0, usec(700), 1.5, 0, 0});
  EXPECT_THROW(core::validate_fault_plan(bad_duty, t, false), std::invalid_argument);
  bad_duty.flap_cycles[0].duty_down = 0.0;
  EXPECT_THROW(core::validate_fault_plan(bad_duty, t, false), std::invalid_argument);

  core::FaultPlan overlap;
  overlap.flaps.push_back({1, 100, 1000});
  overlap.flaps.push_back({1, 999, 2000});
  try {
    core::validate_fault_plan(overlap, t, false);
    FAIL() << "overlapping one-shot flaps accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flaps[1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overlaps flaps[0]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("idempotent"), std::string::npos) << msg;
  }
  // Back-to-back windows ([100,1000) then [1000,2000)) are fine.
  overlap.flaps[1].down_at = 1000;
  EXPECT_NO_THROW(core::validate_fault_plan(overlap, t, false));
  // Same windows on different links are fine.
  overlap.flaps[1] = {2, 999, 2000};
  EXPECT_NO_THROW(core::validate_fault_plan(overlap, t, false));
}

// --- round trips -------------------------------------------------------------

TEST(ScenarioRoundTrip, NormalizedFormIsAFixedPoint) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Scenario s = fuzz_scenario(seed);
    fuzz_faults(s, seed, msec(1));
    const std::string once = to_json(s).dump(true);
    const Scenario loaded = load_string(once);
    EXPECT_EQ(to_json(loaded).dump(true), once) << "seed " << seed;
  }
}

// --- shape_counts vs built fabrics -------------------------------------------

TEST(ScenarioShapes, CountsMatchBuiltFabric) {
  const core::TopologySpec shapes[] = {
      core::RackSpec{5},
      core::MultiJobSpec{3, 2},
      core::HierarchySpec{3, 4},
      core::TreeSpec{3, 2, 2},
      core::TreeSpec{2, 3, 4},
      core::IrregularSpec{{-1, 0, 0, 1}, {2, 2, 3, 3, 3}},
      core::IrregularSpec{{-1}, {0, 0, 0}},
      core::StreamingPsSpec{3, core::StreamingPsPlacement::Dedicated},
      core::StreamingPsSpec{3, core::StreamingPsPlacement::Colocated},
  };
  for (const auto& topo : shapes) {
    const core::FaultTargets t = shape_counts(topo);
    core::FabricParams p;
    p.timing_only = true;
    core::Fabric f(core::FabricConfig(p, topo));
    EXPECT_EQ(t.n_workers, f.n_workers());
    EXPECT_EQ(t.n_links, f.n_links());
    EXPECT_EQ(t.n_switches, f.n_switches());
  }
}

TEST(ScenarioShapes, IrregularReducesBitExact) {
  Scenario s;
  s.name = "irr";
  s.topology = core::IrregularSpec{{-1, 0, 0, 1}, {2, 2, 3, 3, 3}};
  s.fabric.pool_size = 8;
  s.workload.timing = false;
  s.workload.tensor_elems = 2048;
  s.workload.reductions = 2;
  const RunResult r = run(s);
  EXPECT_TRUE(r.data_checked);
  EXPECT_TRUE(r.data_bit_exact);
  EXPECT_FALSE(r.fallback_engaged);
}

// The §5.3 PS baseline runs from one file under a FaultPlan; having no
// switch, it rejects switch faults at load time.
TEST(ScenarioShapes, StreamingPsRoundTripsRunsAndRejectsSwitchFaults) {
  const Scenario s = load_string(R"({"schema_version": 1, "name": "ps",
      "topology": {"kind": "streaming_ps", "workers": 3, "placement": "colocated"},
      "fabric": {"pool_size": 8},
      "workload": {"mode": "data", "tensor_elems": 2048},
      "faults": {"stragglers": [{"worker": 1, "factor": 3.0}]}})");
  const auto& spec = std::get<core::StreamingPsSpec>(s.topology);
  EXPECT_EQ(spec.n_workers, 3);
  EXPECT_EQ(spec.placement, core::StreamingPsPlacement::Colocated);
  const std::string once = to_json(s).dump(true);
  EXPECT_EQ(to_json(load_string(once)).dump(true), once);

  const RunResult r = run(s);
  EXPECT_TRUE(r.data_checked);
  EXPECT_TRUE(r.data_bit_exact);

  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "streaming_ps", "workers": 2},
                        "faults": {"switch_kills": [{"switch": 0, "at_ns": 10}]}})",
                    "$.faults: FaultPlan: switch_kills[0]");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "streaming_ps", "placement": "rack"}})",
                    "$.topology.placement");
}

TEST(ScenarioShapes, IrregularSingleSwitchMatchesRack) {
  // A 1-switch irregular fabric and a rack are the same wiring; same seed,
  // same TATs.
  core::FabricParams p;
  p.timing_only = true;
  core::Fabric rack(core::FabricConfig(p, core::RackSpec{3}));
  core::Fabric irr(core::FabricConfig(p, core::IrregularSpec{{-1}, {0, 0, 0}}));
  EXPECT_EQ(rack.reduce_timing(4096), irr.reduce_timing(4096));
}

// --- the committed corpus ----------------------------------------------------

enum class Stat { kTatMaxMs, kTatMedianMs };

struct CorpusEntry {
  std::string file;          // scenarios/<file>
  Scenario def;              // the in-code ancestor configuration
  std::string baseline_file; // results/baselines/<file>; empty = no baseline
  std::string metric;        // guarded metric in that baseline
  Stat stat = Stat::kTatMaxMs;
};

Scenario rack_base(const std::string& name, const std::string& description) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.topology = core::RackSpec{8};
  s.fabric.transport = net::TransportKind::kUdp; // baselines were recorded on UDP
  return s;
}

Scenario hierarchy_base(const std::string& name, const std::string& description) {
  Scenario s = rack_base(name, description);
  s.topology = core::HierarchySpec{2, 4};
  return s;
}

// Fault times derived at runtime by the ancestor benches (restart/kill
// placement at fractions of a measured clean/burst TAT) are baked in as the
// absolute sim ns the --fast benches compute; the committed baselines pin the
// same values (e.g. clean.tat_max_ms 1.189264 == 1189264 ns).
constexpr Time kRackKillAt = 594632;          // clean_max / 2
constexpr Time kRestart25At = 8914156;        // 0.25 * burst_max
constexpr Time kRestart50At = 17828312;       // 0.50 * burst_max
constexpr Time kRestart75At = 26742468;       // 0.75 * burst_max
constexpr Time kHierRestartAt = 1181648;      // fault_sweep straggled clean_max / 2
constexpr Time kHierKillAt = 595676;          // recovery_sweep clean_h_max / 2

std::vector<CorpusEntry> corpus() {
  std::vector<CorpusEntry> out;
  const std::string fs = "BENCH_fault_sweep.json";
  const std::string rs = "BENCH_recovery_sweep.json";

  {
    Scenario s = rack_base("fault-clean", "fault_sweep reference run: no faults");
    out.push_back({"fault_clean.json", s, fs, "clean.tat_max_ms"});
  }
  for (double factor : {4.0, 16.0, 64.0}) {
    const std::string tag = std::to_string(static_cast<int>(factor));
    Scenario s = rack_base("fault-straggler-" + tag + "x",
                           "fault_sweep straggler sweep: worker 0's NIC " + tag + "x slower");
    s.fabric.faults.stragglers.push_back({0, factor, 0, -1});
    out.push_back({"fault_straggler_" + tag + "x.json", s, fs,
                   "straggler-" + tag + "x.tat_max_ms"});
  }
  for (int duty_pct : {5, 10, 20}) {
    const std::string tag = std::to_string(duty_pct);
    Scenario s = rack_base("fault-flap-" + tag + "pct",
                           "fault_sweep duty sweep: link 0 down " + tag + "% of each 700 us period");
    s.fabric.faults.flap_cycles.push_back({0, usec(700), duty_pct / 100.0, usec(50), 0});
    out.push_back({"fault_flap_" + tag + "pct.json", s, fs, "flap-" + tag + "pct.tat_max_ms"});
  }
  for (int period_us : {350, 1400}) {
    const std::string tag = std::to_string(period_us);
    Scenario s = rack_base("fault-flap-period-" + tag + "us",
                           "fault_sweep period sweep: link 0 at 10% duty, " + tag + " us period");
    s.fabric.faults.flap_cycles.push_back({0, usec(period_us), 0.10, usec(50), 0});
    out.push_back({"fault_flap_period_" + tag + "us.json", s, fs,
                   "flap-period-" + tag + "us.tat_max_ms"});
  }
  {
    Scenario s = rack_base("fault-bernoulli-matched",
                           "fault_sweep burstiness control: Bernoulli loss matched to the "
                           "Gilbert-Elliott stationary average");
    s.fabric.loss_prob = 0.25 * 0.002 / 0.102;
    out.push_back({"fault_bernoulli_matched.json", s, fs, "bernoulli-matched.tat_ms",
                   Stat::kTatMedianMs});
  }
  {
    Scenario s = rack_base("fault-gilbert-elliott",
                           "fault_sweep burst loss: Gilbert-Elliott on every link");
    s.fabric.faults.bursts.push_back({-1, net::BurstLossConfig{0.002, 0.1, 0.0, 0.25}});
    out.push_back({"fault_gilbert_elliott.json", s, fs, "gilbert-elliott.tat_ms",
                   Stat::kTatMedianMs});
  }
  {
    Scenario s = hierarchy_base("fault-hierarchy-clean",
                                "fault_sweep failover comparator: 2x4 hierarchy, 16x straggler");
    s.fabric.faults.stragglers.push_back({0, 16.0, 0, -1});
    out.push_back({"fault_hierarchy_clean.json", s, fs, "hierarchy-clean.tat_max_ms"});
  }
  {
    Scenario s = hierarchy_base("fault-hierarchy-restart",
                                "fault_sweep failover: leaf-0 restart at half the straggled TAT");
    s.fabric.faults.stragglers.push_back({0, 16.0, 0, -1});
    s.fabric.faults.switch_restarts.push_back({1, kHierRestartAt});
    out.push_back({"fault_hierarchy_restart.json", s, fs, "hierarchy-restart.tat_max_ms"});
  }

  core::FaultPlan burst_plan;
  burst_plan.bursts.push_back({-1, net::BurstLossConfig{0.005, 0.25, 0.0, 0.5}});
  {
    Scenario s = rack_base("recovery-burst-only",
                           "recovery_sweep timescale run: Gilbert-Elliott bursts on every link");
    s.fabric.faults = burst_plan;
    out.push_back({"recovery_burst_only.json", s, rs, "burst-only.tat_max_ms"});
  }
  const std::pair<int, Time> restarts[] = {{25, kRestart25At}, {50, kRestart50At},
                                           {75, kRestart75At}};
  for (const auto& [pct, at] : restarts) {
    const std::string tag = std::to_string(pct);
    Scenario s = rack_base("recovery-restart-" + tag + "pct",
                           "recovery_sweep restart placement: switch wiped at " + tag +
                               "% of the burst-only TAT, bursts still active");
    s.fabric.faults = burst_plan;
    s.fabric.faults.switch_restarts.push_back({0, at});
    out.push_back({"recovery_restart_" + tag + "pct.json", s, rs,
                   "restart-" + tag + "pct.tat_max_ms"});
  }
  {
    Scenario s = rack_base("recovery-kill-rack",
                           "recovery_sweep degradation: switch killed at half the clean TAT; "
                           "the run finishes on the streaming-PS fallback");
    s.fabric.faults.switch_kills.push_back({0, kRackKillAt});
    out.push_back({"recovery_kill_rack.json", s, rs, "kill-rack.tat_max_ms"});
  }
  {
    Scenario s = hierarchy_base("recovery-kill-root",
                                "recovery_sweep degradation: hierarchy root killed at half the "
                                "clean TAT");
    s.fabric.faults.switch_kills.push_back({0, kHierKillAt});
    out.push_back({"recovery_kill_root.json", s, rs, "kill-root.tat_max_ms"});
  }

  {
    // examples/custom_scenario.cpp --strategy switchml --tensor-mb 1
    //   --loss 0.001 --adaptive-rto  (compared in-code, no committed baseline)
    Scenario s = rack_base("custom-rack-lossy",
                           "custom_scenario example: 8 workers at 10G, 1 MB tensor, 0.1% loss, "
                           "adaptive RTO");
    s.fabric.loss_prob = 0.001;
    s.fabric.adaptive_rto = true;
    s.workload.tensor_elems = 250000;
    out.push_back({"custom_rack_lossy.json", s, "", ""});
  }

  // Showcases: shapes and fault mixes no parametric bench covers. Data mode —
  // the guarded invariant is bit-exact convergence, not a TAT baseline.
  {
    Scenario s;
    s.name = "showcase-irregular";
    s.description = "asymmetric explicit-adjacency fabric: 2 leaf switches under a root chain, "
                    "uneven racks, straggler + one-shot flap";
    s.topology = core::IrregularSpec{{-1, 0, 0, 1}, {2, 2, 3, 3, 3}};
    s.fabric.transport = net::TransportKind::kUdp;
    s.fabric.pool_size = 8;
    s.fabric.sync_after = 2;
    s.fabric.dead_after = 12;
    s.fabric.faults.stragglers.push_back({1, 8.0, 0, -1});
    s.fabric.faults.flaps.push_back({0, usec(20), usec(80)});
    s.workload.timing = false;
    s.workload.tensor_elems = 4096;
    s.workload.reductions = 2;
    out.push_back({"showcase_irregular.json", s, "", ""});
  }
  {
    Scenario s;
    s.name = "showcase-multi-job";
    s.description = "two jobs sharing one switch; job 0 runs under a straggler and a bounded "
                    "flap cycle (dead_after disabled: multi-job fabrics have no fallback)";
    s.topology = core::MultiJobSpec{2, 4};
    s.fabric.transport = net::TransportKind::kUdp;
    s.fabric.pool_size = 2;
    s.fabric.sync_after = 2;
    s.fabric.dead_after = 0;
    s.fabric.faults.stragglers.push_back({2, 16.0, 0, -1});
    s.fabric.faults.flap_cycles.push_back({1, usec(100), 0.2, 0, 3});
    s.workload.timing = false;
    s.workload.tensor_elems = 2048;
    out.push_back({"showcase_multi_job.json", s, "", ""});
  }
  {
    Scenario s;
    s.name = "showcase-tree-flaps";
    s.description = "3-level binary tree under a bounded flap cycle and light bursts on every "
                    "link";
    s.topology = core::TreeSpec{3, 2, 2};
    s.fabric.transport = net::TransportKind::kUdp;
    s.fabric.pool_size = 8;
    s.fabric.sync_after = 2;
    s.fabric.dead_after = 12;
    s.fabric.faults.flap_cycles.push_back({3, usec(150), 0.1, usec(10), 4});
    s.fabric.faults.bursts.push_back({-1, net::BurstLossConfig{0.003, 0.3, 0.0, 0.3}});
    s.workload.timing = false;
    s.workload.tensor_elems = 2048;
    out.push_back({"showcase_tree_flaps.json", s, "", ""});
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string{};
}

// Not a test of anything: rewrites the corpus from the in-code definitions
// when explicitly requested (see the file header).
TEST(ScenarioCorpus, RegenerateWhenRequested) {
  if (std::getenv("SWITCHML_REGEN_CORPUS") == nullptr)
    GTEST_SKIP() << "set SWITCHML_REGEN_CORPUS=1 to rewrite scenarios/";
  for (const CorpusEntry& e : corpus()) {
    std::ofstream out(scenario_dir() + "/" + e.file, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << e.file;
    out << to_json(e.def).dump(true) << "\n";
  }
}

TEST(ScenarioCorpus, FilesMatchDefinitionsByteForByte) {
  for (const CorpusEntry& e : corpus()) {
    const std::string path = scenario_dir() + "/" + e.file;
    const std::string want = to_json(e.def).dump(true) + "\n";
    EXPECT_EQ(read_file(path), want) << e.file << " drifted from its in-code definition";
  }
}

TEST(ScenarioCorpus, EveryFileLoadsAndRoundTrips) {
  for (const CorpusEntry& e : corpus()) {
    SCOPED_TRACE(e.file);
    Scenario s;
    ASSERT_NO_THROW(s = load_file(scenario_dir() + "/" + e.file));
    EXPECT_EQ(to_json(s).dump(true), to_json(e.def).dump(true));
  }
}

double run_stat(const Scenario& s, Stat stat) {
  const RunResult r = run(s);
  if (stat == Stat::kTatMaxMs) {
    Time max_tat = 0;
    for (const auto& rep : r.tats)
      for (Time t : rep) max_tat = std::max(max_tat, t);
    return to_msec(max_tat);
  }
  Summary ms; // the benches take the median over one rep's workers
  for (const auto& rep : r.tats)
    for (Time t : rep) ms.add(to_msec(t));
  return ms.median();
}

double baseline_value(const std::string& file, const std::string& metric) {
  const json::Value doc = json::parse_file(baseline_dir() + "/" + file);
  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr) throw std::runtime_error(file + ": no metrics");
  const json::Value* m = metrics->find(metric);
  if (m == nullptr) throw std::runtime_error(file + ": no metric " + metric);
  return m->find("value")->as_double();
}

// One ctest entry per corpus file so the (real) simulations run in parallel.
class CorpusReproduction : public testing::TestWithParam<CorpusEntry> {};

TEST_P(CorpusReproduction, GuardedMetricMatchesBaseline) {
  const CorpusEntry& e = GetParam();
  const Scenario s = load_file(scenario_dir() + "/" + e.file);
  if (e.baseline_file.empty()) {
    // Showcases + the example port: the contract is explicit convergence.
    const RunResult r = run(s);
    if (s.workload.timing) {
      EXPECT_FALSE(r.tats.empty());
    } else {
      EXPECT_TRUE(r.data_checked);
      EXPECT_TRUE(r.data_bit_exact);
    }
    return;
  }
  const double want = baseline_value(e.baseline_file, e.metric);
  const double got = run_stat(s, e.stat);
  EXPECT_NEAR(got, want, std::abs(want) * 1e-9) << e.metric;
}

INSTANTIATE_TEST_SUITE_P(AllFiles, CorpusReproduction, testing::ValuesIn(corpus()),
                         [](const testing::TestParamInfo<CorpusEntry>& info) {
                           std::string n = info.param.file;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// The custom_scenario port must be the SAME simulation as the in-code
// ClusterConfig the example builds — every worker's TAT identical, not just a
// summary statistic.
TEST(ScenarioCorpus, CustomScenarioPortMatchesInCodeConfig) {
  const Scenario s = load_file(scenario_dir() + "/custom_rack_lossy.json");
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 8);
  cfg.timing_only = true;
  cfg.loss_prob = 0.001;
  cfg.adaptive_rto = true;
  cfg.transport = net::TransportKind::kUdp;
  core::Cluster cluster(cfg);
  const auto want = cluster.reduce_timing(250000);
  const RunResult r = run(s);
  ASSERT_EQ(r.tats.size(), 1u);
  EXPECT_EQ(r.tats[0], want);
}

} // namespace
} // namespace switchml::scenario
