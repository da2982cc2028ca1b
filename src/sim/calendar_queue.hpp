#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inline_action.hpp"
#include "sim/time.hpp"

namespace hawkeye::sim {

/// Hierarchical bucket calendar for simulator events, replacing the seed's
/// global `std::priority_queue`. Events land in fixed-width time buckets
/// (a classic timing wheel); draining a bucket is a linear pass that
/// threads its events onto per-nanosecond FIFO lanes, so the steady-state
/// cost per event is a push_back plus two link writes — no heap sift, no
/// sort.
///
/// Structure (near → far):
///  - the *drain tier* — the events of the bucket currently being drained
///    (`base_bucket_`). Events sit still in an arena (`cur_slots_`, one
///    64-byte cache line each). Each of the bucket's 64 nanoseconds has a
///    lane: an intrusive singly linked FIFO threaded through the arena by
///    `next_` (4 bytes per event) with `lane_head_`/`lane_tail_` indices.
///    A 64-bit occupancy mask (`lanes_`) finds the earliest non-empty lane
///    with one countr_zero; a pop unlinks that lane's head.
///  - `wheel_`     — kBucketCount vectors of events, in push order,
///    covering the next kBucketCount * kBucketWidthNs nanoseconds after
///    `base_bucket_`. A 1-bit-per-bucket occupancy bitmap makes skipping
///    empty buckets a countr_zero scan instead of a pointer chase. An empty
///    wheel slot holds no capacity: a drained bucket's vector goes to the
///    `spare_` stack and the next push into an empty slot takes it back, so
///    retained capacity tracks the peak number of occupied buckets, not
///    kBucketCount.
///  - `far_`       — unordered overflow for events beyond the wheel horizon
///    (retransmit timeouts, far-future flow starts). Migrated into the
///    wheel when the drain frontier approaches them.
///
/// Determinism: pop order is *exactly* ascending (time, seq) — the same
/// total order the seed heap used. A lane holds the events of exactly one
/// nanosecond, so only seq orders it, and the simulator issues seqs in
/// push order: the bucket's vector keeps push order, threading it onto the
/// lanes is a stable counting sort, and a push into the active bucket
/// appends behind events whose seqs are all smaller. Two sources break
/// push order, and both stay exact:
///  - *out-of-order seqs.* A sharded barrier flush pushes the deferred
///    schedules of each source shard in turn, so seqs interleave; and an
///    event migrated from `far_` joins its bucket after wheel events pushed
///    later. Every append compares its seq with the lane's tail; a smaller
///    seq marks the lane unsorted (`unsorted_`), and prepare_head() sorts
///    each marked lane once before the head is read — O(m log m) per lane,
///    never an insertion walk.
///  - *pushes behind the frontier.* prepare_head() may advance the
///    frontier past the clock (the sharded round's minimum scan, or a
///    run_until that stops before the next bucket); a later push can then
///    land in a bucket before `base_bucket_`. Such events go to a small
///    binary heap of arena indices (`behind_`), ordered by (time, seq).
///    They precede every lane event, so the heap drains first.
/// Buckets only group events; they never reorder them. The evaluation
/// harness depends on this for bit-identical precision/recall numbers.
///
/// A push invalidates head(): call prepare_head() again before head() or
/// pop_head() (it sorts any lane the push left unsorted).
class EventCalendar {
 public:
  /// One scheduled event — exactly one 64-byte cache line (8-byte time +
  /// 8-byte seq + 48-byte InlineAction). Move-only; the calendar never
  /// copies events — see SimulatorTest.EventsAreNeverCopied.
  struct Event {
    Time at = 0;
    std::uint64_t seq = 0;
    InlineAction fn;
  };

  static constexpr int kBucketWidthShift = 6;   // 64 ns buckets
  static constexpr int kBucketCountLog2 = 14;   // 16384 buckets, ~1.05 ms span
  static constexpr std::int64_t kBucketCount = std::int64_t{1}
                                               << kBucketCountLog2;
  static constexpr std::int64_t kBucketMask = kBucketCount - 1;
  static constexpr Time kBucketWidthNs = Time{1} << kBucketWidthShift;
  static_assert(kBucketWidthNs == 64, "one lanes_ bit per nanosecond");

  EventCalendar() : wheel_(static_cast<std::size_t>(kBucketCount)) {}
  EventCalendar(const EventCalendar&) = delete;
  EventCalendar& operator=(const EventCalendar&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Time at, std::uint64_t seq, InlineAction fn) {
    const std::int64_t b = bucket_of(at);
    if (b > base_bucket_) {
      if (b < base_bucket_ + kBucketCount) {
        wheel_slot(b).push_back(Event{at, seq, std::move(fn)});
        ++wheel_count_;
      } else {
        if (far_.empty() || b < far_min_bucket_) far_min_bucket_ = b;
        far_.push_back(Event{at, seq, std::move(fn)});
      }
    } else if (b == base_bucket_) {
      link(arena_push(Event{at, seq, std::move(fn)}));
    } else {
      behind_.push_back(arena_push(Event{at, seq, std::move(fn)}));
      std::push_heap(behind_.begin(), behind_.end(), Later{cur_slots_});
    }
    ++size_;
  }

  /// Advance the drain frontier (without executing anything) until the
  /// earliest pending event sits at the head. Returns false when drained.
  bool prepare_head() {
    while (lanes_ == 0 && behind_.empty()) {
      if (size_ == 0) return false;
      cur_slots_.clear();
      next_.clear();
      const std::int64_t wheel_next = next_wheel_bucket();
      const bool have_far = !far_.empty();
      // Jump to the earlier of (next occupied wheel bucket, earliest far
      // bucket). When both land on the same bucket — a migrated retransmit
      // timeout sharing a bucket with queued traffic — BOTH sources must
      // drain together, or the wheel's share would fire out of
      // (time, seq) order behind the far share.
      const std::int64_t target =
          wheel_next >= 0 && (!have_far || wheel_next <= far_min_bucket_)
              ? wheel_next
              : far_min_bucket_;
      base_bucket_ = target;
      if (wheel_next == target) take_bucket(target);
      if (have_far && far_min_bucket_ <= target) migrate_far();
    }
    if (unsorted_ != 0) sort_lanes();
    return true;
  }

  /// Earliest pending event; only valid after prepare_head() returned true.
  const Event& head() const {
    return cur_slots_[behind_.empty() ? lane_head_[std::countr_zero(lanes_)]
                                      : behind_.front()];
  }

  /// Remove and return the earliest pending event (prepare_head() first).
  Event pop_head() {
    std::uint32_t slot;
    if (behind_.empty()) {
      const int l = std::countr_zero(lanes_);
      slot = lane_head_[l];
      if (slot == lane_tail_[l]) {
        lanes_ &= lanes_ - 1;  // lane l was the lowest set bit
      } else {
        lane_head_[l] = next_[slot];
      }
    } else {
      std::pop_heap(behind_.begin(), behind_.end(), Later{cur_slots_});
      slot = behind_.back();
      behind_.pop_back();
    }
    Event ev = std::move(cur_slots_[slot]);
    // Reclaim the arena (all remaining slots are moved-from husks) so a
    // push/pop ping-pong within one bucket can't grow it unboundedly.
    if (lanes_ == 0 && behind_.empty()) {
      cur_slots_.clear();
      next_.clear();
    }
    --size_;
    return ev;
  }

  /// Event capacity held by the calendar (wheel slots, spare stack, drain
  /// arena and far tier): its memory footprint is this times sizeof(Event).
  /// O(kBucketCount) — an observable for the benches, not for the hot path.
  std::size_t retained_capacity() const {
    std::size_t cap = cur_slots_.capacity() + far_.capacity();
    for (const auto& v : wheel_) cap += v.capacity();
    for (const auto& v : spare_) cap += v.capacity();
    return cap;
  }

 private:
  static constexpr std::int64_t bucket_of(Time at) {
    return at >> kBucketWidthShift;
  }

  /// Min-heap comparator for `behind_`: arena slot `a` fires after `b`.
  struct Later {
    const std::vector<Event>& arena;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      const Event& x = arena[a];
      const Event& y = arena[b];
      return x.at != y.at ? x.at > y.at : x.seq > y.seq;
    }
  };

  void mark_occupied(std::int64_t b) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    occupied_[m >> 6] |= std::uint64_t{1} << (m & 63);
  }
  void clear_occupied(std::int64_t b) {
    const auto m = static_cast<std::uint64_t>(b & kBucketMask);
    occupied_[m >> 6] &= ~(std::uint64_t{1} << (m & 63));
  }

  /// Wheel slot of absolute bucket `b`, marked occupied and ready for a
  /// push_back: an empty slot holds no capacity, so it takes a spare vector.
  std::vector<Event>& wheel_slot(std::int64_t b) {
    auto& vec = wheel_[static_cast<std::size_t>(b & kBucketMask)];
    if (vec.capacity() == 0 && !spare_.empty()) {
      vec.swap(spare_.back());
      spare_.pop_back();
    }
    mark_occupied(b);
    return vec;
  }

  /// Park the (empty) vector of a drained wheel slot on the spare stack,
  /// leaving the slot without capacity.
  void recycle(std::vector<Event>& vec) {
    if (vec.capacity() == 0) return;
    spare_.emplace_back();
    spare_.back().swap(vec);
  }

  /// Append arena slot `slot` (an event of the active bucket) to the tail
  /// of its nanosecond's lane. A seq below the tail's marks the lane for
  /// prepare_head()'s sort.
  void link(std::uint32_t slot) {
    const Event& ev = cur_slots_[slot];
    const auto l = static_cast<unsigned>(ev.at & (kBucketWidthNs - 1));
    const std::uint64_t bit = std::uint64_t{1} << l;
    if ((lanes_ & bit) != 0) {
      const std::uint32_t tail = lane_tail_[l];
      if (ev.seq < cur_slots_[tail].seq) unsorted_ |= bit;
      next_[tail] = slot;
    } else {
      lane_head_[l] = slot;
      lanes_ |= bit;
    }
    lane_tail_[l] = slot;
  }

  /// Append an event to the drain arena (next_ stays indexed like it) and
  /// return its slot.
  std::uint32_t arena_push(Event&& ev) {
    cur_slots_.push_back(std::move(ev));
    next_.push_back(0);
    return static_cast<std::uint32_t>(cur_slots_.size() - 1);
  }

  /// Put each lane marked by an out-of-order append back in seq order.
  void sort_lanes() {
    const auto seq_less = [this](std::uint32_t a, std::uint32_t b) {
      return cur_slots_[a].seq < cur_slots_[b].seq;
    };
    for (; unsorted_ != 0; unsorted_ &= unsorted_ - 1) {
      const int l = std::countr_zero(unsorted_);
      lane_buf_.clear();
      for (std::uint32_t s = lane_head_[l];; s = next_[s]) {
        lane_buf_.push_back(s);
        if (s == lane_tail_[l]) break;
      }
      std::sort(lane_buf_.begin(), lane_buf_.end(), seq_less);
      for (std::size_t i = 1; i < lane_buf_.size(); ++i) {
        next_[lane_buf_[i - 1]] = lane_buf_[i];
      }
      lane_head_[l] = lane_buf_.front();
      lane_tail_[l] = lane_buf_.back();
    }
  }

  /// Absolute bucket of the next non-empty wheel slot after base_bucket_,
  /// or -1. Every wheel event lies in (base_bucket_, base_bucket_ +
  /// kBucketCount), so the masked slot maps back to a unique absolute
  /// bucket.
  std::int64_t next_wheel_bucket() const {
    if (wheel_count_ == 0) return -1;
    const std::int64_t start = base_bucket_ + 1;
    // Scan the occupancy bitmap as a circular kBucketCount-bit word
    // starting at start's slot; `off` is the distance from `start`.
    std::int64_t off = 0;
    while (off < kBucketCount) {
      const auto slot =
          static_cast<std::uint64_t>((start + off) & kBucketMask);
      const std::uint64_t word = occupied_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        off += std::countr_zero(word);
        return off < kBucketCount ? start + off : -1;
      }
      off += 64 - static_cast<std::int64_t>(slot & 63);
    }
    return -1;
  }

  /// Make absolute bucket `b` the drain arena and thread its events onto
  /// the lanes in push order. The bucket vector is *swapped in* — zero
  /// per-event moves — and the arena's old vector goes to the spare stack,
  /// not back into the slot. The same pass returns any event of a later
  /// wheel revolution that shares the slot to the wheel; its moved-from
  /// husk stays unlinked in the arena.
  void take_bucket(std::int64_t b) {
    auto& vec = wheel_[static_cast<std::size_t>(b & kBucketMask)];
    assert(cur_slots_.empty() && "prepare_head() empties the arena first");
    wheel_count_ -= vec.size();
    clear_occupied(b);
    cur_slots_.swap(vec);
    recycle(vec);
    next_.resize(cur_slots_.size());
    for (std::uint32_t i = 0; i < cur_slots_.size(); ++i) {
      Event& ev = cur_slots_[i];
      if (bucket_of(ev.at) == b) {
        link(i);
      } else {
        wheel_slot(bucket_of(ev.at)).push_back(std::move(ev));
        ++wheel_count_;
      }
    }
  }

  /// Pull far-future events that now fall inside the wheel horizon (or the
  /// active bucket) after base_bucket_ moved. The frontier only jumps to
  /// the earliest far bucket or before it, so none lands behind it.
  void migrate_far() {
    std::size_t kept = 0;
    std::int64_t new_min = -1;
    for (Event& ev : far_) {
      const std::int64_t b = bucket_of(ev.at);
      if (b == base_bucket_) {
        link(arena_push(std::move(ev)));
      } else if (b < base_bucket_ + kBucketCount) {
        wheel_slot(b).push_back(std::move(ev));
        ++wheel_count_;
      } else {
        if (new_min < 0 || b < new_min) new_min = b;
        far_[kept++] = std::move(ev);
      }
    }
    far_.resize(kept);
    far_min_bucket_ = new_min;
  }

  std::vector<std::vector<Event>> wheel_;
  std::vector<std::vector<Event>> spare_;  // drained buckets' vectors
  std::array<std::uint64_t, static_cast<std::size_t>(kBucketCount / 64)>
      occupied_{};
  std::vector<Event> cur_slots_;        // drain arena: lanes and behind_
  std::vector<std::uint32_t> next_;     // lane links, indexed like the arena
  std::array<std::uint32_t, 64> lane_head_{};  // valid where lanes_ is set
  std::array<std::uint32_t, 64> lane_tail_{};
  std::uint64_t lanes_ = 0;     // bit l: lane l (ns base + l) is non-empty
  std::uint64_t unsorted_ = 0;  // lanes with an out-of-order append
  std::vector<std::uint32_t> lane_buf_;  // sort_lanes() scratch
  std::vector<std::uint32_t> behind_;    // min-heap: pushes behind frontier
  std::vector<Event> far_;               // events beyond the wheel horizon
  std::int64_t base_bucket_ = 0;
  std::int64_t far_min_bucket_ = -1;
  std::size_t wheel_count_ = 0;  // events currently in wheel_ buckets
  std::size_t size_ = 0;         // total pending events
};

}  // namespace hawkeye::sim
