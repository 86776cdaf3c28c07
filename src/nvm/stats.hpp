// Instruction accounting for the emulated NVM: how many loads, stores, CAS,
// flushes and fences a run issued. Used by the persistency-cost experiment
// (E7) and by the step-bound experiment (E5).
//
// Every emulated access bumps one counter, so the bump is on the hot path.
// Whether it may race is fixed when the counters are constructed:
//   * shared   — any number of threads count at once (relaxed fetch_add).
//     The global domain, the threads executor and E6's bare per-object
//     domains count this way.
//   * confined — one thread at a time counts, each handing over to the next
//     through a synchronizing handoff (a plain load and store, no locked
//     instruction). sim::world's domain counts this way: only its driver, or
//     the strand the driver handed the step to, touches it.
// Confined counters are read and reset only by the thread that counts, or
// after a handoff from it (sim::world's callers read them between runs).
// The mode cannot change after construction. A pmem_domain built confined
// applies the same rule to the rest of its bookkeeping: its cell list,
// journal and footprint counters take no mutex and no locked instruction
// (see nvm/pmem.hpp), and its cells are plain memory, read and written
// without atomics (see nvm/pcell.hpp).
#pragma once

#include <atomic>
#include <cstdint>

namespace detect::nvm {

/// Plain (copyable) snapshot of the counters.
struct stats_snapshot {
  std::uint64_t shared_loads = 0;
  std::uint64_t shared_stores = 0;
  std::uint64_t shared_cas = 0;
  std::uint64_t shared_exchanges = 0;
  std::uint64_t private_loads = 0;
  std::uint64_t private_stores = 0;
  std::uint64_t flushes = 0;
  std::uint64_t fences = 0;
  std::uint64_t crashes = 0;

  std::uint64_t shared_total() const noexcept {
    return shared_loads + shared_stores + shared_cas + shared_exchanges;
  }
  std::uint64_t persist_total() const noexcept { return flushes + fences; }

  friend stats_snapshot operator-(stats_snapshot a, const stats_snapshot& b) {
    a.shared_loads -= b.shared_loads;
    a.shared_stores -= b.shared_stores;
    a.shared_cas -= b.shared_cas;
    a.shared_exchanges -= b.shared_exchanges;
    a.private_loads -= b.private_loads;
    a.private_stores -= b.private_stores;
    a.flushes -= b.flushes;
    a.fences -= b.fences;
    a.crashes -= b.crashes;
    return a;
  }
};

/// The counters (relaxed atomics: counts only, no synchronization role).
class stats {
 public:
  enum class sharing : std::uint8_t { shared, confined };

  explicit stats(sharing s = sharing::shared) noexcept : sharing_(s) {}

  sharing mode() const noexcept { return sharing_; }

  /// Add `d` to `c` as a counter of mode `s` may: a relaxed fetch_add when
  /// shared, a plain load and store when confined.
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t d,
                  sharing s) noexcept {
    if (s == sharing::confined) {
      c.store(c.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
    } else {
      c.fetch_add(d, std::memory_order_relaxed);
    }
  }

  void add_shared_load() noexcept { bump(shared_loads_); }
  void add_shared_store() noexcept { bump(shared_stores_); }
  void add_shared_cas() noexcept { bump(shared_cas_); }
  void add_shared_exchange() noexcept { bump(shared_exchanges_); }
  void add_private_load() noexcept { bump(private_loads_); }
  void add_private_store() noexcept { bump(private_stores_); }
  void add_flush() noexcept { bump(flushes_); }
  void add_fence() noexcept { bump(fences_); }
  void add_crash() noexcept { bump(crashes_); }

  stats_snapshot snapshot() const noexcept {
    stats_snapshot s;
    s.shared_loads = shared_loads_.load(std::memory_order_relaxed);
    s.shared_stores = shared_stores_.load(std::memory_order_relaxed);
    s.shared_cas = shared_cas_.load(std::memory_order_relaxed);
    s.shared_exchanges = shared_exchanges_.load(std::memory_order_relaxed);
    s.private_loads = private_loads_.load(std::memory_order_relaxed);
    s.private_stores = private_stores_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    s.fences = fences_.load(std::memory_order_relaxed);
    s.crashes = crashes_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    shared_loads_ = 0;
    shared_stores_ = 0;
    shared_cas_ = 0;
    shared_exchanges_ = 0;
    private_loads_ = 0;
    private_stores_ = 0;
    flushes_ = 0;
    fences_ = 0;
    crashes_ = 0;
  }

 private:
  void bump(std::atomic<std::uint64_t>& c) const noexcept {
    add(c, 1, sharing_);
  }

  sharing sharing_;

  std::atomic<std::uint64_t> shared_loads_{0};
  std::atomic<std::uint64_t> shared_stores_{0};
  std::atomic<std::uint64_t> shared_cas_{0};
  std::atomic<std::uint64_t> shared_exchanges_{0};
  std::atomic<std::uint64_t> private_loads_{0};
  std::atomic<std::uint64_t> private_stores_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> fences_{0};
  std::atomic<std::uint64_t> crashes_{0};
};

}  // namespace detect::nvm
