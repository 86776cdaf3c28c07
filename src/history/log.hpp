// Append-only execution log, arena-backed.
//
// Under the simulator, appends happen at scheduler-granted steps, so the
// append order equals the model's real-time order. In free-running mode a
// mutex provides a consistent (if arbitrary) serialization — free-running is
// used for performance measurement, not for checking.
//
// Storage is a chunked bump arena: fixed-size blocks of POD `event`s,
// allocated once and reused across runs (`clear()` rewinds the cursor but
// keeps every block). The hot append path is a cursor bump — no
// reallocation, no copying of earlier events, and a steady-state run
// allocates nothing at all. `blocks_allocated()` exposes the block count so
// tests can pin the allocation behavior.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "history/event.hpp"

namespace detect::hist {

class log {
 public:
  /// Events per arena block. One block holds most scenario runs whole; long
  /// crash-torture runs chain more without ever moving earlier events.
  static constexpr std::size_t k_block_events = 1024;

  void append(event e) {
    std::scoped_lock lock(mu_);
    if (used_ == k_block_events * blocks_used_) grow_locked();
    blocks_[used_ / k_block_events][used_ % k_block_events] = e;
    ++used_;
  }

  /// Copy of the events at positions `from` onwards (all of them by
  /// default; none when `from` is at or past the end).
  std::vector<event> snapshot(std::size_t from = 0) const {
    std::vector<event> out;
    std::scoped_lock lock(mu_);
    if (from < used_) out.reserve(used_ - from);
    visit_locked(from, [&](const event& e) { out.push_back(e); });
    return out;
  }

  /// Call `f(e)` on the events at positions `from` onwards, in place and in
  /// log order, under the log's lock: readers that keep only a slice of a
  /// long log need not copy the rest. `f` must not touch this log.
  template <class F>
  void for_each(std::size_t from, F&& f) const {
    std::scoped_lock lock(mu_);
    visit_locked(from, f);
  }

  std::size_t size() const {
    std::scoped_lock lock(mu_);
    return used_;
  }

  /// Rewind to empty. Blocks are retained: the next run appends into the
  /// same storage without touching the allocator.
  void clear() {
    std::scoped_lock lock(mu_);
    used_ = 0;
    blocks_used_ = blocks_.empty() ? 0 : 1;
  }

  /// Arena blocks ever allocated by this log (monotone; clear() keeps them).
  std::size_t blocks_allocated() const {
    std::scoped_lock lock(mu_);
    return blocks_.size();
  }

  std::string to_string() const;

 private:
  template <class F>
  void visit_locked(std::size_t from, F&& f) const {
    for (std::size_t i = from; i < used_; ++i) {
      f(blocks_[i / k_block_events][i % k_block_events]);
    }
  }

  void grow_locked() {
    if (blocks_used_ < blocks_.size()) {
      ++blocks_used_;  // reuse a block retained by clear()
      return;
    }
    blocks_.push_back(std::make_unique<event[]>(k_block_events));
    ++blocks_used_;
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<event[]>> blocks_;
  std::size_t blocks_used_ = 0;  // blocks the current contents span
  std::size_t used_ = 0;         // total events appended since clear()
};

}  // namespace detect::hist
