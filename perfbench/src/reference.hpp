// Host-speed reference of the timed runs. On a shared virtual machine the
// host's speed drifts between regimes that last seconds to minutes
// (contention from neighbours for the core, cache and memory), which moves
// the wall time of a fixed pass by up to 1.8x. The benchmark runs this kernel between the timed passes and
// divides the host's momentary slowness out of its timings, so two runs of
// the same code read the same at different moments.
//
// The kernel is the benchmark's own code, not the simulator's, so no change
// to the simulator moves it. It imitates the simulator's event loop in two
// phases, one per kind of slowdown the workloads feel: popping the earliest
// key off a binary min-heap and pushing a later one with the heap in the
// core's own cache (where the many small fabrics of strategy_sweep live), then
// the same with a random read-modify-write into 8 MiB of state per event
// (the shared cache and memory that the long-lived 100 Gbps rack leans on).
// Either phase alone left twice the run-to-run spread on one of those two
// workloads. A unit does the same work on every call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

class ReferenceKernel {
public:
  // Wall seconds of one unit at the usual speed of the host the bounds were
  // set on (a shared 4-vCPU KVM guest on a 2.0 GHz Xeon), the median over
  // many runs. It only anchors the scale: a run whose units take longer
  // reports its times shortened by that factor.
  static constexpr double kNominalUnitS = 0.018;

  ReferenceKernel() : state_(kStateWords) { heap_.reserve(kCacheKeys); }

  // Runs one unit of fixed work; returns its wall seconds.
  double unit() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    const auto next = [&x] { return x = x * 6364136223846793005ULL + 1442695040888963407ULL; };
    const auto fill = [&](int keys) {
      heap_.clear();
      for (int i = 0; i < keys; ++i) {
        heap_.push_back(next() >> 24);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    };
    fill(kCacheKeys);
    for (int i = 0; i < kCacheOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back() += (next() >> 48) + 1;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    fill(kMemoryKeys);
    for (int i = 0; i < kMemoryOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint64_t key = heap_.back();
      state_[key % kStateWords] += key;
      const std::uint64_t r = next();
      state_[(r >> 33) % kStateWords] ^= r;
      heap_.back() = key + (r >> 52) + 1;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    sink_ = heap_.front() + state_[x % kStateWords];
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

private:
  static constexpr int kCacheKeys = 32768; // 256 KiB of heap
  static constexpr int kCacheOps = 100000;
  static constexpr int kMemoryKeys = 16384;
  static constexpr int kMemoryOps = 50000;
  static constexpr std::size_t kStateWords = std::size_t{1} << 20; // 8 MiB
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> state_;
  volatile std::uint64_t sink_ = 0; // keeps the compiler from dropping the work
};

} // namespace perfbench
