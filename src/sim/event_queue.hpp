// Slab-backed event queue: the storage and ordering core of the simulator.
//
// Two structures, deliberately separated:
//
//   - a RECYCLING SLAB of event records (the 64-byte EventFn closure plus
//     timer state), allocated in fixed-size chunks so a record's address
//     never changes while it is queued and growth never moves a live
//     closure. Slots are recycled through a free list when their event pops,
//     and a per-slot generation counter invalidates stale cancellation refs.
//
//   - an intrusive 4-ARY MIN-HEAP over 16-byte keys {time, seq|slot}. Sifts
//     move only keys — never closures — and a 64-byte cache line holds four
//     of them, which is exactly one 4-ary node's children: a sift-down
//     compares all four with a single line fetch, and the tree is half the
//     depth of a binary heap. (The old std::priority_queue<Event> sifted
//     whole events, moving a std::function at every level.)
//
// Ordering is (time, seq) with seq a per-queue monotonic counter, i.e. FIFO
// for same-time events — identical to the previous engine, so same-seed runs
// stay bit-identical. The seq is packed into the key's upper 40 bits above a
// 24-bit slot index; since seqs are unique, key comparison IS (time, seq)
// comparison. The counter resets whenever the queue drains, so the 40-bit
// budget (~1.1e12 schedules between drains) is effectively unbounded; both
// limits throw rather than wrap.
//
// Cancellation drops straight to the slab: the closure is destroyed
// immediately (releasing captured resources), the record is marked dead, and
// the heap key stays behind to pop as a no-op — O(1), no heap surgery. The
// `inert` count tracks queued keys that will never do observable work
// (cancelled timers plus daemon events) so live() can answer "would the
// simulation go quiet?" without scanning.
//
// LAZY RE-ARM. A retransmission timer is pushed back on every packet its
// owner sends. Cancel + push would leave one tombstone per packet queued
// until its old deadline (on a 100 G rack with a 1 ms RTO, ~254K keys for a
// 1M-element reduction). rearm() instead moves a timer whose key is still
// queued — armed or cancelled — to a later deadline in O(1): it swaps in the
// new closure and records a DUE key {at, seq} in the slab, taking `seq` from
// the counter at re-arm time exactly as the push would have. The queued key
// stays where it is. When it pops behind its record's due key, pop_and_run
// re-keys the root at the due key and sifts it down; that pop runs nothing
// and does not count as an event. Ordering is unchanged by construction:
//   - the queued key (t0, s0) precedes the due key (t1, s1), since t1 >= t0
//     and s1 > s0, so it pops first and re-keys in time;
//   - between those pops the heap differs from the cancel + push heap only
//     by a key that has not popped yet, so every other pop is the same;
//   - the due key carries the seq the fresh push would have had, so its
//     place among same-time events is the push's place.
// A re-arm to a time before the queued key falls back to cancel + push
// (a key cannot move earlier without heap surgery). The seq counter's
// reset on drain cannot strand a reservation: a reserved seq lives in a
// record whose key is queued, so the heap is not empty while one is
// outstanding, and re-keying replaces the root without popping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace switchml::sim {

using switchml::Time;

class EventQueue {
public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // Cancellation handle contents: slab slot + generation. Refs outlive their
  // event harmlessly — the generation check makes stale refs inert.
  struct Ref {
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules a plain (non-cancellable) event. The callable is constructed
  // directly in its slab record (no intermediate EventFn relocation);
  // passing an EventFn moves it in.
  template <typename F>
  void push(Time at, F&& fn) {
    push_record(at, std::forward<F>(fn), false);
  }

  // Schedules a cancellable event. `daemon` events are inert from birth:
  // they run, but never count as live work.
  template <typename F>
  Ref push_timer(Time at, F&& fn, bool daemon) {
    const std::uint32_t slot = push_record(at, std::forward<F>(fn), daemon);
    return Ref{slot, record(slot).gen};
  }

  // O(1) cancel: destroys the closure now, leaves the key to pop inert.
  // Returns false (no-op) for stale or already-cancelled refs.
  bool cancel(Ref r) {
    if (r.slot == kNoSlot) return false;
    Record& rec = record(r.slot);
    if (rec.gen != r.gen || !rec.armed) return false;
    rec.fn.reset();
    rec.armed = false;
    // A cancelled daemon was already inert; don't count it twice.
    inert_ += static_cast<std::uint64_t>(!rec.daemon);
    return true;
  }

  // Lazy re-arm (see the header comment): points the timer `r` refers to at
  // `fn`, due at `at`, reserving the seq a fresh push would take now. Works
  // on armed and cancelled timers (a cancelled one revives) as long as the
  // record's key is still queued; a daemon stays a daemon. A deadline before
  // the queued key falls back to cancel + push and updates `r`. Returns
  // false, and does nothing, for a stale ref (its key has popped).
  template <typename F>
  bool rearm(Ref& r, Time at, F&& fn) {
    if (r.slot == kNoSlot) return false;
    Record& rec = record(r.slot);
    if (rec.gen != r.gen) return false;
    if (at < rec.queued_at) {
      const bool daemon = rec.daemon;
      cancel(r);
      r = push_timer(at, std::forward<F>(fn), daemon);
      return true;
    }
    assign(rec, std::forward<F>(fn));
    if (!rec.armed) {
      rec.armed = true;
      inert_ -= static_cast<std::uint64_t>(!rec.daemon);
    }
    rec.due_at = at;
    rec.due_order = take_order(r.slot);
    rec.moved = true;
    return true;
  }

  [[nodiscard]] bool armed(Ref r) const {
    return r.slot != kNoSlot && record(r.slot).gen == r.gen && record(r.slot).armed;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  // Most keys ever queued at once (a deterministic cost proxy).
  [[nodiscard]] std::size_t peak_size() const { return peak_; }

  // Queued events that will still do observable work (excludes cancelled
  // timers and daemons). Throws if the inert bookkeeping ever drifts past
  // the queue size — the alternative is a silent unsigned wrap that would
  // make "has the sim live work?" answer yes forever.
  [[nodiscard]] std::uint64_t live() const {
    if (inert_ > heap_.size()) throw_inert_drift();
    return heap_.size() - inert_;
  }

  // Earliest queued time; queue must be non-empty.
  [[nodiscard]] Time next_time() const { return heap_[0].at; }

  // Pops the earliest event, recycles its slot (invalidating refs to it),
  // and — for live events — invokes its closure IN PLACE in the slab after
  // calling `on_live(at)` (the caller's chance to advance its clock first).
  // In-place dispatch skips the closure relocation a move-out would cost;
  // it is safe because chunked slab storage never moves a record, and the
  // slot is withheld from the free list until the closure returns, so
  // callbacks scheduling new events (even re-arming themselves) cannot
  // overwrite the running closure. Returns true iff a live event ran;
  // cancelled events are skipped without invoking `on_live`, and a re-armed
  // timer's early key is re-keyed at its due key without invoking it.
  template <typename OnLive>
  bool pop_and_run(OnLive&& on_live) {
    const Key top = heap_[0];
    const auto slot = static_cast<std::uint32_t>(top.order & kSlotMask);
    Record& rec = record(slot);
    if (rec.moved) {
      rec.moved = false;
      if (rec.armed) {
        rec.queued_at = rec.due_at;
        sift_down(Key{rec.due_at, rec.due_order}); // replaces the root in place
        return false;
      }
    }
    sift_pop();
    const bool live = rec.armed;
    inert_ -= static_cast<std::uint64_t>(!live | rec.daemon);
    ++rec.gen; // the slot's one queued key is gone: refs die, slot recycles
    rec.armed = false;
    rec.daemon = false;
    if (heap_.empty()) next_seq_ = 0; // drained: reclaim the 40-bit seq budget
    if (!live) {
      free_.push_back(slot);
      return false;
    }
    on_live(top.at);
    // Release the slot even if the closure throws (matching the old
    // move-out-then-run behaviour, where the event was gone either way).
    const SlotRelease release{this, slot};
    rec.fn();
    return true;
  }

private:
  // 16-byte heap key. `order` packs (seq << 24) | slot: unique seqs make the
  // comparison equivalent to (at, seq), and the slot rides along for free.
  struct Key {
    Time at;
    std::uint64_t order;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  static constexpr std::size_t kArity = 4;
  // 1024 records per chunk: growth allocates one chunk, never relocates.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct Record {
    EventFn fn;
    Time queued_at = 0;          // time of this record's one queued key
    Time due_at = 0;             // re-armed deadline (valid while `moved`)
    std::uint64_t due_order = 0; // its reserved (seq << 24) | slot
    std::uint32_t gen = 0;
    bool armed = false;
    bool daemon = false;
    bool moved = false; // re-armed: the queued key is earlier than the due key
  };

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  [[nodiscard]] const Record& record(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  template <typename F>
  static void assign(Record& rec, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      rec.fn = std::forward<F>(fn);
    } else {
      rec.fn.emplace(std::forward<F>(fn)); // built in place: no relocation
    }
  }

  // Takes the next seq for `slot`'s key.
  std::uint64_t take_order(std::uint32_t slot) {
    if (next_seq_ >= kMaxSeq) throw_seq_overflow();
    return (next_seq_++ << kSlotBits) | slot;
  }

  template <typename F>
  std::uint32_t push_record(Time at, F&& fn, bool daemon) {
    const std::uint32_t slot = acquire_slot();
    Record& rec = record(slot);
    assign(rec, std::forward<F>(fn));
    rec.armed = true;
    rec.daemon = daemon;
    rec.queued_at = at;
    inert_ += static_cast<std::uint64_t>(daemon);
    sift_push(Key{at, take_order(slot)});
    return slot;
  }

  // Scope guard: returns a slot to the free list (destroying its closure)
  // when an in-place dispatch finishes, even by exception.
  struct SlotRelease {
    EventQueue* q;
    std::uint32_t slot;
    ~SlotRelease() {
      q->record(slot).fn.reset();
      q->free_.push_back(slot);
    }
  };

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return grow_slab();
  }

  static bool earlier(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  }

  void sift_push(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    if (heap_.size() > peak_) peak_ = heap_.size();
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_pop() {
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

  // Places `last` at the root's position and sifts it down.
  void sift_down(Key last) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  // Cold paths live in event_queue.cpp.
  std::uint32_t grow_slab();
  [[noreturn]] static void throw_seq_overflow();
  [[noreturn]] static void throw_slab_full();
  [[noreturn]] static void throw_inert_drift();

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<Key> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t inert_ = 0;
  std::size_t peak_ = 0;
  std::uint32_t slot_count_ = 0;
};

} // namespace switchml::sim
