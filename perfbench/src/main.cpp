// hostbench: measures what the SwitchML simulator costs on the host.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--tiny] [--corrupt-operation I]
//
// One process, one thread. The run sets the workload up five times (median
// reported as setup_s): once before the timed passes, the others spread over
// them. Timed passes run until S seconds have passed (at least two), each
// followed by units of the host-speed reference kernel (reference.hpp) for a
// fifth of its wall time; the reported times are divided by the host's
// slowdown over the run. The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, every other timed pass is traced, and the spans are
// written to PATH as trace-event JSON. NOTES.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "reference.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::LayerCounts;
using perfbench::median;
using perfbench::ratio;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kSetups = 5;
// Reference kernel time after each timed pass, as a share of the pass's wall
// time, so the kernel samples the host's speed evenly over the timed phase.
constexpr double kReferenceShare = 0.2;

struct Args {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  perfbench::Options options; // seed, --tiny, --corrupt-operation
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--tiny] [--corrupt-operation I]\nworkloads:",
               why);
  for (const auto& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_count(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    usage((std::string(flag) + " needs a whole number").c_str());
  return v;
}

double parse_seconds(const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !(v >= 0.0) || v > 3600.0)
    usage("--seconds needs a number of seconds from 0 to 3600");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value after " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.options.seed = parse_count("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_seconds(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("--trace is 0 or 1");
      a.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--corrupt-operation") {
      const std::uint64_t op = parse_count("--corrupt-operation", value);
      if (op > 1'000'000) usage("--corrupt-operation needs an operation index");
      a.options.corrupt_operation = static_cast<long>(op);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (a.trace_out.empty()) a.trace_out = "perfbench-trace-" + a.workload + ".json";
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// Layer calls the benchmark wraps in spans; "<name>_s" is the metric.
const char* const kLayerSpans[] = {
    "core.build",           "core.reduce",      "quant.quantize",
    "quant.dequantize",     "scenario.load",    "framework.switchml_train",
    "framework.ring_train", "collectives.ring", "collectives.halving_doubling",
    "collectives.streaming_ps", "bench.inputs", "bench.verify",
};
// Calls that run a simulation whose executed events the benchmark can read,
// and the training simulations, whose events it cannot.
const char* const kEventedSpans[] = {"core.reduce", "collectives.ring",
                                     "collectives.halving_doubling", "collectives.streaming_ps"};
const char* const kTrainingSpans[] = {"framework.switchml_train", "framework.ring_train"};

using SelfTimes = std::map<std::string, double>;

double self_time(const SelfTimes& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second;
}

// Median over samples of one layer's self time.
double median_of(const std::vector<SelfTimes>& samples, const std::string& name) {
  std::vector<double> v;
  for (const auto& s : samples) v.push_back(self_time(s, name));
  return v.empty() ? 0.0 : median(v);
}

class Metrics {
public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i == 0 ? "" : ", ") + switchml::json_quote(entries_[i].name) + ": {\"value\": " +
             buf + ", \"unit\": " + switchml::json_quote(entries_[i].unit) + "}";
    }
    return out + "}";
  }
  void print_table(std::FILE* f) const {
    for (const auto& e : entries_)
      std::fprintf(f, "  %-40s %18.6f %s\n", e.name.c_str(), e.value, e.unit);
  }

private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

void add_layer_metrics(Metrics& m, const std::vector<SelfTimes>& setups,
                       const std::vector<SelfTimes>& passes, const LayerCounts& c,
                       double wall_elems_per_s, double reference_unit_s,
                       double trace_overhead_pct) {
  // A layer that runs in the timed passes is reported per pass; one that
  // runs only while setting up (fabric build, scenario load, inputs) per
  // set-up. Both are medians.
  std::map<std::string, double> layer_s;
  for (const char* name : kLayerSpans) {
    bool in_passes = false;
    for (const auto& p : passes) in_passes = in_passes || self_time(p, name) > 0.0;
    layer_s[name] = in_passes ? median_of(passes, name) : median_of(setups, name);
  }
  double evented_s = 0.0, training_s = 0.0;
  for (const char* name : kEventedSpans) evented_s += layer_s[name];
  for (const char* name : kTrainingSpans) training_s += layer_s[name];
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };

  m.add("core.build_s", layer_s["core.build"], "s");
  m.add("core.reduce_s", layer_s["core.reduce"], "s");
  m.add("sim.events", d(c.events), "count");
  m.add("sim.events_per_packet", ratio(d(c.events), d(c.evented_packets)), "events/packet");
  m.add("sim.host_ns_per_event", ratio(evented_s * 1e9, d(c.events)), "ns");
  m.add("net.tx_packets", d(c.tx_packets), "count");
  m.add("net.delivered_packets", d(c.delivered_packets), "count");
  m.add("net.tx_bytes", d(c.tx_bytes), "B");
  m.add("net.dropped_loss", d(c.dropped_loss), "count");
  m.add("net.host_ns_per_packet", ratio((evented_s + training_s) * 1e9, d(c.delivered_packets)),
        "ns");
  m.add("net.queue_wait_p99_us", c.queue_wait.p99_us(), "us");
  m.add("net.transport_segments", d(c.transport_segments), "count");
  m.add("net.transport_retx_ratio", ratio(d(c.transport_retx), d(c.transport_segments)), "ratio");
  m.add("worker.updates_sent", d(c.updates_sent), "count");
  m.add("worker.retransmissions", d(c.retransmissions), "count");
  m.add("worker.timeouts", d(c.timeouts), "count");
  m.add("worker.useful_update_ratio",
        ratio(d(c.updates_sent) - d(c.retransmissions), d(c.updates_sent)), "ratio");
  m.add("worker.rtt_p99_us", c.worker_rtt.p99_us(), "us");
  m.add("switchml_switch.updates_received", d(c.updates_received), "count");
  m.add("switchml_switch.results_multicast", d(c.results_multicast), "count");
  m.add("switchml_switch.duplicate_update_ratio",
        ratio(d(c.duplicate_updates), d(c.updates_received)), "ratio");
  m.add("switchml_switch.slot_dwell_p99_us", c.slot_dwell.p99_us(), "us");
  m.add("quant.quantize_s", layer_s["quant.quantize"], "s");
  m.add("quant.dequantize_s", layer_s["quant.dequantize"], "s");
  m.add("scenario.load_s", layer_s["scenario.load"], "s");
  m.add("framework.switchml_train_s", layer_s["framework.switchml_train"], "s");
  m.add("framework.ring_train_s", layer_s["framework.ring_train"], "s");
  m.add("collectives.ring_s", layer_s["collectives.ring"], "s");
  m.add("collectives.halving_doubling_s", layer_s["collectives.halving_doubling"], "s");
  m.add("collectives.streaming_ps_s", layer_s["collectives.streaming_ps"], "s");
  m.add("bench.inputs_s", layer_s["bench.inputs"], "s");
  m.add("bench.verify_s", layer_s["bench.verify"], "s");
  m.add("bench.trace_overhead_pct", trace_overhead_pct, "%");
  m.add("bench.wall_elems_per_s", wall_elems_per_s, "elem/s");
  m.add("bench.reference_unit_ns", reference_unit_s * 1e9, "ns");
}

int run(const Args& args) {
  perfbench::SpanLog spans(args.trace);
  perfbench::SpanLog untraced(false);
  int attempted = 0, failed = 0;
  const auto tally = [&](const perfbench::PassResult& r, const char* phase) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.failures) std::fprintf(stderr, "FAILED (%s) %s\n", phase, f.c_str());
  };

  std::optional<perfbench::SpanLog::Scope> root;
  root.emplace(spans, args.workload);
  // --- set-up: build description, fabric(s) and inputs, then run the
  // untimed warm-up pass that grows the event slab, heap and pools. Each
  // set-up replaces the workload the passes run on.
  std::unique_ptr<perfbench::Workload> workload;
  std::vector<double> setup_s;
  std::vector<SelfTimes> setup_layers;
  const auto set_up = [&] {
    perfbench::Options options = args.options;
    if (!setup_s.empty()) options.corrupt_operation = -1; // only the first set-up's workload
    workload.reset(); // teardown of the previous set-up is not set-up time
    const std::size_t mark = spans.size();
    const Clock::time_point t0 = Clock::now();
    {
      perfbench::SpanLog::Scope s(spans, "setup");
      workload = perfbench::make_workload(args.workload, options, spans);
      perfbench::SpanLog::Scope w(spans, "warmup");
      tally(workload->warm_up(spans), "warm-up");
    }
    setup_s.push_back(seconds_since(t0));
    setup_layers.push_back(spans.self_seconds(mark, spans.size()));
  };
  set_up();

  // --- timed passes. In the traced run every other pass is traced and
  // counted; the untraced ones measure what tracing costs.
  // Elements and wall seconds of the untraced [0] and traced [1] passes.
  std::uint64_t elements[2] = {0, 0};
  double wall_s[2] = {0.0, 0.0};
  std::vector<double> pass_s;
  std::vector<SelfTimes> pass_layers;
  LayerCounts counts;
  perfbench::ReferenceKernel reference;
  double reference_s = 0.0;
  std::uint64_t reference_units = 0;
  double first_sim_s = 0.0, sim_s_sum = 0.0, rss_mb = 0.0;
  // The fixed part of the run: its sim_s and memory do not depend on how
  // many passes the host manages in --seconds.
  const int fixed_passes = std::max(2, workload->sim_passes());
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < fixed_passes || seconds_since(start) < args.seconds; ++i) {
    // The other set-ups are spread over the run, after the fixed passes, so
    // setup_s samples the host's speed drift the way the passes do instead of
    // only its first seconds.
    if (i >= fixed_passes && static_cast<int>(setup_s.size()) < kSetups &&
        seconds_since(start) >= args.seconds * static_cast<double>(setup_s.size()) / kSetups)
      set_up();
    const bool traced = args.trace && i % 2 == 0;
    perfbench::SpanLog& log = traced ? spans : untraced;
    const std::size_t mark = spans.size();
    const Clock::time_point t0 = Clock::now();
    perfbench::PassResult r;
    {
      perfbench::SpanLog::Scope s(log, "pass");
      r = workload->pass(log, traced);
    }
    const double wall = seconds_since(t0);
    pass_s.push_back(wall);
    elements[traced] += r.elements;
    wall_s[traced] += wall;
    if (traced) pass_layers.push_back(spans.self_seconds(mark, spans.size()));
    for (double spent = 0.0; spent < kReferenceShare * wall; ++reference_units) {
      const double unit_s = reference.unit();
      spent += unit_s;
      reference_s += unit_s;
    }
    if (i == 0) {
      first_sim_s = r.sim_s;
      counts = r.counts;
    } else if (workload->sim_repeats() && r.sim_s != first_sim_s) {
      ++r.failed;
      r.failures.push_back("sim_s changed between passes of one seed");
    }
    if (i < workload->sim_passes()) sim_s_sum += r.sim_s;
    if (i + 1 == fixed_passes) rss_mb = peak_rss_mb();
    tally(r, "timed");
  }
  while (static_cast<int>(setup_s.size()) < kSetups) set_up(); // runs too short to spread them
  root.reset(); // the trace file holds the finished root span

  // host_elems_per_s is taken over all passes of a kind together: under the
  // host's slow drift between speed regimes a pooled ratio moves less from
  // run to run than a median of per-pass rates, which jumps between regimes.
  // The reported times are the wall times over the host's slowdown in the run.
  const double slowdown = perfbench::host_slowdown(reference_s, reference_units,
                                                   perfbench::ReferenceKernel::kNominalUnitS);
  const auto rate = [&](bool traced) {
    return wall_s[traced] > 0.0 ? perfbench::host_elems_per_s(elements[traced], wall_s[traced])
                                : 0.0;
  };
  Metrics m;
  if (!args.trace) {
    m.add("host_elems_per_s", rate(false) * slowdown, "elem/s");
    m.add("sim_s", sim_s_sum / workload->sim_passes(), "s");
    m.add("setup_s", median(setup_s) / slowdown, "s");
    m.add("peak_rss_mb", rss_mb, "MB");
  } else {
    const double untraced_rate = rate(false), traced_rate = rate(true);
    add_layer_metrics(m, setup_layers, pass_layers, counts, untraced_rate,
                      reference_s / static_cast<double>(reference_units),
                      100.0 * ratio(untraced_rate - traced_rate, untraced_rate));
    if (!spans.write_trace_json(args.trace_out))
      std::fprintf(stderr, "hostbench: could not write %s\n", args.trace_out.c_str());
    else
      std::fprintf(stderr, "hostbench: spans written to %s\n", args.trace_out.c_str());
  }
  const perfbench::Quartiles q = perfbench::quartiles(pass_s); // at least two passes
  std::fprintf(stderr,
               "hostbench %s seed=%llu: %d set-ups, %zu timed passes (wall s: q1 %.4f median "
               "%.4f q3 %.4f), host slowdown %.4f over %llu reference units, wall %.6g elem/s, "
               "%d/%d operations failed\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.options.seed), kSetups,
               pass_s.size(), q.q1, q.q2, q.q3, slowdown,
               static_cast<unsigned long long>(reference_units), rate(false), failed, attempted);
  m.print_table(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed, m.json().c_str());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
