// Append-only execution log, arena-backed.
//
// Under the simulator, appends happen at scheduler-granted steps, so the
// append order equals the model's real-time order.
//
// The log takes no lock. One thread at a time may append, read or clear it,
// and a thread that takes over from another must be ordered after it (a
// join, a mutex, or the simulator's step handoff). Under the simulator that
// holds by construction: a world's log is touched only by its driver or by
// the strand the driver handed the step to. Callers that append from
// threads running at once serialize the appends themselves: the
// free-running threads executor holds its own mutex around each append,
// and its log is read only after its client threads are joined.
//
// Storage is a chunked bump arena: fixed-size blocks of raw, uninitialized
// `event` slots, allocated once and reused across runs (`clear()` rewinds
// the cursor but keeps every block). A block is never constructed as a
// whole: `append()` constructs each event in the slot it fills, so a world
// whose run logs a few dozen events touches a few dozen slots of its 56 KB
// block, not all 1024. The hot append path is a cursor bump — no
// reallocation, no copying of earlier events, and a steady-state run
// allocates nothing at all. `blocks_allocated()` exposes the block count so
// tests can pin the allocation behavior.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "history/event.hpp"

namespace detect::hist {

class log {
 public:
  /// Events per arena block. One block holds most scenario runs whole; long
  /// crash-torture runs chain more without ever moving earlier events.
  static constexpr std::size_t k_block_events = 1024;

  void append(event e) {
    if (used_ == k_block_events * blocks_used_) grow();
    ::new (&blocks_[used_ / k_block_events][used_ % k_block_events]) event(e);
    ++used_;
  }

  /// Copy of the events at positions `from` onwards (all of them by
  /// default; none when `from` is at or past the end).
  std::vector<event> snapshot(std::size_t from = 0) const {
    std::vector<event> out;
    if (from < used_) out.reserve(used_ - from);
    for_each(from, [&](const event& e) { out.push_back(e); });
    return out;
  }

  /// Call `f(e)` on the events at positions `from` onwards, in place and in
  /// log order: readers that keep only a slice of a long log need not copy
  /// the rest. `f` must not append to or clear this log.
  template <class F>
  void for_each(std::size_t from, F&& f) const {
    for (std::size_t i = from; i < used_; ++i) {
      f(blocks_[i / k_block_events][i % k_block_events]);
    }
  }

  std::size_t size() const noexcept { return used_; }

  /// Rewind to empty. Blocks are retained: the next run appends into the
  /// same storage without touching the allocator.
  void clear() noexcept {
    used_ = 0;
    blocks_used_ = blocks_.empty() ? 0 : 1;
  }

  /// Arena blocks ever allocated by this log (monotone; clear() keeps them).
  std::size_t blocks_allocated() const noexcept { return blocks_.size(); }

  std::string to_string() const;

 private:
  // Slots past `used_` hold no event (or a dead one from before a clear()),
  // and events need no destructor, so a block is freed as raw storage.
  static_assert(std::is_trivially_copyable_v<event> &&
                std::is_trivially_destructible_v<event>);
  struct raw_delete {
    void operator()(event* block) const noexcept { ::operator delete(block); }
  };
  using block = std::unique_ptr<event[], raw_delete>;

  void grow() {
    if (blocks_used_ < blocks_.size()) {
      ++blocks_used_;  // reuse a block retained by clear()
      return;
    }
    blocks_.emplace_back(
        static_cast<event*>(::operator new(sizeof(event) * k_block_events)));
    ++blocks_used_;
  }

  std::vector<block> blocks_;
  std::size_t blocks_used_ = 0;  // blocks the current contents span
  std::size_t used_ = 0;         // total events appended since clear()
};

}  // namespace detect::hist
