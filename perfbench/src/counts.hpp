// Exact per-layer counts read at the benchmark's call boundary from the
// simulator's public counters: Simulation::events_executed() and the
// MetricsRegistry every fabric registers its links, workers, switches and
// transport hosts into. Components are told apart by their registered names
// ("link.<a>-><b>.*", "<host>.transport.*", worker "*.updates_sent", switch
// "*.updates_received").
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/metrics.hpp"

namespace perfbench {

// Bucket counts of every registered histogram of one kind, merged; subtracting
// two of them gives the distribution of the samples recorded in between.
struct MergedHistogram {
  std::vector<std::uint64_t> buckets;

  void add(const switchml::Histogram& h) {
    if (buckets.empty()) buckets.assign(h.counts().size(), 0);
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += h.counts()[i];
  }
  void add(const MergedHistogram& other) {
    if (buckets.empty()) buckets.assign(other.buckets.size(), 0);
    for (std::size_t i = 0; i < other.buckets.size(); ++i) buckets[i] += other.buckets[i];
  }
  void subtract(const MergedHistogram& earlier) {
    for (std::size_t i = 0; i < earlier.buckets.size(); ++i) buckets[i] -= earlier.buckets[i];
  }
  // p99 in microseconds (bucket-equivalent value; every registered histogram
  // uses the default layout). 0 when nothing was recorded.
  [[nodiscard]] double p99_us() const {
    if (buckets.empty()) return 0.0;
    const switchml::Histogram layout;
    if (layout.counts().size() != buckets.size()) return 0.0;
    return static_cast<double>(layout.quantiles_of(buckets).p99) / 1e3;
  }
};

struct LayerCounts {
  // Events executed, and the packets delivered by the same components, only
  // where the benchmark holds the Simulation (not inside a training sim).
  std::uint64_t events = 0, evented_packets = 0;
  // net: summed over every link direction
  std::uint64_t tx_packets = 0, delivered_packets = 0, tx_bytes = 0, dropped_loss = 0;
  // net: reliable-transport hosts of the baselines
  std::uint64_t transport_segments = 0, transport_retx = 0;
  // worker
  std::uint64_t updates_sent = 0, retransmissions = 0, timeouts = 0;
  // switchml_switch
  std::uint64_t updates_received = 0, duplicate_updates = 0, results_multicast = 0;
  MergedHistogram queue_wait, worker_rtt, slot_dwell;

  // Cumulative counts of `registry`, plus the simulation's executed events
  // when the caller could read them.
  static LayerCounts read(const switchml::MetricsRegistry& registry, std::uint64_t events,
                          bool events_known) {
    LayerCounts c;
    c.events = events;
    for (const auto& [name, sample] : registry.counters()) {
      const std::string_view n = name;
      const bool link = n.starts_with("link.");
      const bool transport = n.find(".transport.") != std::string_view::npos;
      std::uint64_t* slot = nullptr;
      if (link) {
        if (n.ends_with(".tx_packets")) slot = &c.tx_packets;
        else if (n.ends_with(".delivered_packets")) slot = &c.delivered_packets;
        else if (n.ends_with(".tx_bytes")) slot = &c.tx_bytes;
        else if (n.ends_with(".dropped_loss")) slot = &c.dropped_loss;
      } else if (transport) {
        if (n.ends_with(".segments_sent")) slot = &c.transport_segments;
        else if (n.ends_with(".retransmissions")) slot = &c.transport_retx;
      } else if (n.ends_with(".updates_sent")) {
        slot = &c.updates_sent;
      } else if (n.ends_with(".retransmissions")) {
        slot = &c.retransmissions;
      } else if (n.ends_with(".timeouts")) {
        slot = &c.timeouts;
      } else if (n.ends_with(".updates_received")) {
        slot = &c.updates_received;
      } else if (n.ends_with(".duplicate_updates")) {
        slot = &c.duplicate_updates;
      } else if (n.ends_with(".results_multicast")) {
        slot = &c.results_multicast;
      }
      if (slot != nullptr) *slot += sample();
    }
    for (const auto& [name, h] : registry.histograms()) {
      const std::string_view n = name;
      if (n.starts_with("link.") && n.ends_with(".queue_wait_ns")) c.queue_wait.add(*h);
      else if (n.ends_with(".rtt_ns") && n.find(".transport.") == std::string_view::npos)
        c.worker_rtt.add(*h);
      else if (n.ends_with(".slot_dwell_ns")) c.slot_dwell.add(*h);
    }
    if (events_known) c.evented_packets = c.delivered_packets;
    return c;
  }

  // Counts accumulated since `earlier` was read from the same components.
  void subtract(const LayerCounts& earlier) {
    combine(earlier, [](std::uint64_t& a, std::uint64_t b) { a -= b; });
    queue_wait.subtract(earlier.queue_wait);
    worker_rtt.subtract(earlier.worker_rtt);
    slot_dwell.subtract(earlier.slot_dwell);
  }

  // Counts of another, independent set of components (one sweep point).
  void add(const LayerCounts& other) {
    combine(other, [](std::uint64_t& a, std::uint64_t b) { a += b; });
    queue_wait.add(other.queue_wait);
    worker_rtt.add(other.worker_rtt);
    slot_dwell.add(other.slot_dwell);
  }

private:
  template <typename Op>
  void combine(const LayerCounts& other, Op op) {
    for (std::uint64_t LayerCounts::*field :
         {&LayerCounts::events, &LayerCounts::evented_packets, &LayerCounts::tx_packets,
          &LayerCounts::delivered_packets, &LayerCounts::tx_bytes, &LayerCounts::dropped_loss,
          &LayerCounts::transport_segments, &LayerCounts::transport_retx,
          &LayerCounts::updates_sent, &LayerCounts::retransmissions, &LayerCounts::timeouts,
          &LayerCounts::updates_received, &LayerCounts::duplicate_updates,
          &LayerCounts::results_multicast})
      op(this->*field, other.*field);
  }
};

} // namespace perfbench
