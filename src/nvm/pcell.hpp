// pcell<T> — an atomic cell of emulated persistent memory ("base object" /
// shared variable in the paper's model, §2).
//
// Supported primitives mirror the paper: atomic read, write, CAS, exchange.
// Each primitive is exactly one simulator step (the hook fires before the
// physical access), which is the atomicity grain of the model. In
// shared-cache mode a cell carries both its cached value (`cur_`) and its
// persisted image (`persisted_`); `flush()` copies cache → NVM and a crash
// reverts NVM → cache.
//
// Width: T must be trivially copyable and free of padding bytes (CAS
// compares bytes, as std::atomic does). How an access is made follows the
// domain's sharing mode (nvm/stats.hpp), fixed when the domain is built:
//   * shared   — every access is a seq_cst atomic through std::atomic_ref<T>,
//     so threads may touch the cell at once (the threads backend, the global
//     domain, E6's bare domains). Lock-freedom holds up to 16 bytes on
//     x86-64 with -mcx16 (Algorithm 2 packs ⟨value, vec⟩ into exactly 16
//     bytes); without it GCC calls libatomic.
//   * confined — the cell is plain memory. One thread at a time touches the
//     domain and each hands over to the next through a synchronizing
//     handoff; under the simulator the step token already makes every access
//     one atomic step, so a locked instruction would buy nothing.
#pragma once

#include <atomic>
#include <cstring>
#include <type_traits>

#include "nvm/hook.hpp"
#include "nvm/pmem.hpp"
#include "wmm/visibility.hpp"

namespace detect::nvm {

template <typename T>
class pcell final : public persistent_base {
  static_assert(std::is_trivially_copyable_v<T>,
                "persistent cells hold raw memory words");
  static_assert(std::has_unique_object_representations_v<T>,
                "compare_exchange compares bytes, so T may have no padding");

 public:
  explicit pcell(T init = T{}, pmem_domain& dom = pmem_domain::global())
      : cur_(init), persisted_(init), dom_(&dom) {
    dom_->attach(*this);
  }
  ~pcell() { dom_->detach(*this); }

  /// Atomic read. One step. Under a relaxed visibility model the issuing
  /// process's own buffered store wins (store-to-load forwarding); a
  /// forwarded value is not globally visible yet, so the auto-persist
  /// after-read path is skipped for it (drain → persist ordering).
  T load() const {
    hook_access(access::shared_load);
    dom_->counters().add_shared_load();
    if constexpr (sizeof(T) <= wmm::store_buffer::k_max_value) {
      if (const wmm::store_buffer* b = dom_->active_store_buffer()) {
        T fwd;
        if (b->forward(*this, &fwd, sizeof(T))) return fwd;
      }
    }
    T v = get(cur_, std::memory_order_seq_cst);
    after_read(v);
    return v;
  }

  /// Atomic write. One step. Under a relaxed visibility model the store
  /// enters the process's FIFO buffer instead of the cell; it applies (and
  /// only then persists) at its drain step.
  void store(T v) {
    hook_access(access::shared_store);
    dom_->counters().add_shared_store();
    if constexpr (sizeof(T) <= wmm::store_buffer::k_max_value) {
      if (wmm::store_buffer* b = dom_->active_store_buffer()) {
        b->push(*this, &pcell::apply_buffered, &v, sizeof(T));
        return;
      }
    }
    put(cur_, v, std::memory_order_seq_cst);
    after_write(v);
  }

  /// Atomic compare-and-swap. One step. On failure `expected` is refreshed
  /// with the observed value, as with std::atomic.
  bool compare_exchange(T& expected, T desired) {
    hook_access(access::shared_cas);
    dom_->counters().add_shared_cas();
    bool ok;
    if (dom_->confined()) {
      ok = std::memcmp(&cur_, &expected, sizeof(T)) == 0;
      if (ok) {
        cur_ = desired;
      } else {
        expected = cur_;
      }
    } else {
      ok = std::atomic_ref<T>(cur_).compare_exchange_strong(
          expected, desired, std::memory_order_seq_cst);
    }
    after_write(ok ? desired : expected);
    return ok;
  }

  /// Atomic exchange. One step.
  T exchange(T v) {
    hook_access(access::shared_exchange);
    dom_->counters().add_shared_exchange();
    T old;
    if (dom_->confined()) {
      old = cur_;
      cur_ = v;
    } else {
      old = std::atomic_ref<T>(cur_).exchange(v, std::memory_order_seq_cst);
    }
    after_write(v);
    return old;
  }

  /// Explicit persist of the current cached value (shared-cache mode). Its
  /// own step when invoked by algorithm code.
  void flush() {
    hook_access(access::flush);
    flush_in_step();
  }

  /// Debug/metrics read that bypasses the hook and counters. Not part of the
  /// algorithmic access sequence; never use from operation code.
  T peek() const noexcept { return get(cur_, std::memory_order_relaxed); }

  /// Persisted image (what a crash would revert to). Debug/tests only.
  T peek_persisted() const noexcept {
    return get(persisted_, std::memory_order_relaxed);
  }

  pmem_domain& domain() const noexcept { return *dom_; }

 private:
  /// Read or write one of the cell's two words as the domain's sharing mode
  /// allows: plainly when confined, atomically with order `mo` when shared.
  T get(T& word, std::memory_order mo) const noexcept {
    if (dom_->confined()) return word;
    return std::atomic_ref<T>(word).load(mo);
  }
  void put(T& word, T v, std::memory_order mo) const noexcept {
    if (dom_->confined()) {
      word = v;
    } else {
      std::atomic_ref<T>(word).store(v, mo);
    }
  }

  /// Drain-time replay of a buffered store: apply the raw value to the cell
  /// with the same memory order and persistency side effects the direct
  /// store path would have had (wmm::store_buffer::apply_fn).
  static void apply_buffered(persistent_base& cell, const unsigned char* raw) {
    auto& self = static_cast<pcell&>(cell);
    T v;
    std::memcpy(&v, raw, sizeof(T));
    self.put(self.cur_, v, std::memory_order_seq_cst);
    self.after_write(v);
  }

  // Izraelevitz-style automatic transformation: persist the location and
  // fence within the same atomic step as the access itself, so that no other
  // process can observe a value that is not yet durable.
  //
  // Under buffered persistency neither path runs: stores sit in the
  // write-behind journal until an explicit flush or the domain's next epoch
  // boundary, so a crash can discard them.
  void after_write(T v) noexcept {
    if (dom_->buffered()) {
      dom_->note_dirty(*this);
      return;
    }
    if (dom_->model() == cache_model::private_cache) {
      put(persisted_, v, std::memory_order_relaxed);
    } else if (dom_->auto_persist()) {
      flush_in_step();
      dom_->fence();
    }
  }
  void after_read(T) const noexcept {
    if (dom_->buffered()) return;
    if (dom_->model() == cache_model::shared_cache && dom_->auto_persist()) {
      persist_word();
      dom_->counters().add_flush();
      dom_->fence();
    }
  }
  void flush_in_step() noexcept {
    persist_word();
    dom_->counters().add_flush();
  }

  /// Copy the cached value to the persisted image.
  void persist_word() const noexcept {
    put(persisted_, get(cur_, std::memory_order_relaxed),
        std::memory_order_relaxed);
  }

  void revert_to_persisted() noexcept override {
    put(cur_, get(persisted_, std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  void persist_now() noexcept override { persist_word(); }
  std::size_t image_size() const noexcept override { return sizeof(T); }
  void save_raw(std::uint8_t* cur, std::uint8_t* persisted) const override {
    const T c = get(cur_, std::memory_order_relaxed);
    const T p = get(persisted_, std::memory_order_relaxed);
    std::memcpy(cur, &c, sizeof(T));
    std::memcpy(persisted, &p, sizeof(T));
  }
  void load_raw(const std::uint8_t* cur,
                const std::uint8_t* persisted) override {
    T c, p;
    std::memcpy(&c, cur, sizeof(T));
    std::memcpy(&p, persisted, sizeof(T));
    put(cur_, c, std::memory_order_relaxed);
    put(persisted_, p, std::memory_order_relaxed);
    // A migrated image may arrive with cur != persisted; keep the buffered
    // journal's every-divergence-is-journaled invariant.
    if (dom_->buffered()) dom_->note_dirty(*this);
  }

  // Aligned for std::atomic_ref, which a shared domain's accesses go through.
  alignas(std::atomic_ref<T>::required_alignment) mutable T cur_;
  alignas(std::atomic_ref<T>::required_alignment) mutable T persisted_;
  pmem_domain* dom_;
};

}  // namespace detect::nvm
