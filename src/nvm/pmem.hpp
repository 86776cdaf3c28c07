// Emulated persistent-memory domain.
//
// The paper's two memory models (§2, §6):
//   * private-cache model — primitive operations apply directly to NVM; a
//     crash loses only volatile (per-process local) state.
//   * shared-cache model  — primitives apply to a volatile shared cache;
//     explicit flush/fence instructions move values to NVM; a crash reverts
//     the cache to the last persisted image.
//
// A `pmem_domain` owns the model choice and the crash bookkeeping for every
// persistent cell registered with it. `crash_reset()` implements the
// system-wide crash: in shared-cache mode each cell's cached value reverts to
// its persisted image; in private-cache mode shared memory survives verbatim.
//
// `auto_persist` applies the syntactic transformation of Izraelevitz et al.
// the paper cites in §6: every shared access is followed (within the same
// atomic step) by a flush of the touched location plus a fence, which makes
// the shared-cache execution indistinguishable from a private-cache one while
// exposing the persistency-instruction cost (experiment E7).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "nvm/stats.hpp"

namespace detect::wmm {
class store_buffer;
}

namespace detect::nvm {

enum class cache_model : std::uint8_t { private_cache, shared_cache };

/// Persistency-visibility model, orthogonal to the cache model:
///   * strict   — every store is crash-persistent the moment it executes
///     (private-cache) or whenever auto_persist flushes it (shared-cache).
///     This is the historical behavior.
///   * buffered — the emulated persistency controller write-behind buffers
///     stores; they become crash-persistent only at explicit flushes and at
///     epoch boundaries (`epoch_boundary()`, which the client runtime calls
///     at every operation-visibility event). A crash discards everything
///     after the last boundary — whole-operation rollbacks that the strict
///     model can never produce, while still honoring durable linearizability
///     because no response is emitted before its epoch is drained.
enum class persist_model : std::uint8_t { strict, buffered };

/// Stable wire name ("strict" / "buffered").
inline const char* persist_name(persist_model m) noexcept {
  return m == persist_model::buffered ? "buffered" : "strict";
}

/// Inverse of persist_name; false on unknown names (`out` untouched).
inline bool persist_from_name(const std::string& name,
                              persist_model& out) noexcept {
  if (name == "strict") {
    out = persist_model::strict;
    return true;
  }
  if (name == "buffered") {
    out = persist_model::buffered;
    return true;
  }
  return false;
}

/// Raw snapshot of one persistent cell: its cached value and its persisted
/// image, as opaque bytes. The unit of the portable NVM representation that
/// object migration moves between domains (see save_image / load_image).
struct cell_image {
  std::vector<std::uint8_t> cur;
  std::vector<std::uint8_t> persisted;
};

/// The persistent representation of a group of cells (e.g. every cell one
/// registry object attached during construction), in attach order.
using pmem_image = std::vector<cell_image>;

/// Base class for everything that lives in emulated NVM and needs crash /
/// persist bookkeeping. Cells link themselves into their domain's intrusive
/// list on construction and out on destruction.
class persistent_base {
 public:
  persistent_base(const persistent_base&) = delete;
  persistent_base& operator=(const persistent_base&) = delete;

  /// Raw snapshot of this cell (cached value + persisted image). Bypasses
  /// access hooks and counters: migration runs between executions, outside
  /// the measured access sequence.
  cell_image save_image() const;

  /// Inverse of save_image(). Throws std::invalid_argument when the image's
  /// byte width does not match this cell's value type.
  void load_image(const cell_image& img);

 protected:
  persistent_base() = default;
  ~persistent_base() = default;

 private:
  friend class pmem_domain;
  /// True when the cached value byte-equals the persisted image.
  bool image_clean() const;
  /// Revert cached value to the persisted image (shared-cache crash).
  virtual void revert_to_persisted() noexcept = 0;
  /// Checkpoint the cached value as persisted (initialization / full sync).
  virtual void persist_now() noexcept = 0;
  /// Byte width of the cell's value type (one of cur/persisted).
  virtual std::size_t image_size() const noexcept = 0;
  /// Copy the cached value / persisted image into `cur` / `persisted`
  /// (each image_size() bytes).
  virtual void save_raw(std::uint8_t* cur, std::uint8_t* persisted) const = 0;
  /// Inverse of save_raw.
  virtual void load_raw(const std::uint8_t* cur,
                        const std::uint8_t* persisted) = 0;

  persistent_base* prev_ = nullptr;
  persistent_base* next_ = nullptr;
  /// In the domain's write-behind journal (buffered persistency only).
  bool journaled_ = false;
};

/// Snapshot `cells` (in order) into one portable image.
pmem_image save_image(const std::vector<persistent_base*>& cells);

/// Load `image` back into `cells`. Throws std::invalid_argument on a layout
/// mismatch (different cell count or byte widths) — the caller pairs images
/// with an identically-constructed cell group.
void load_image(const std::vector<persistent_base*>& cells,
                const pmem_image& image);

class pmem_domain {
 public:
  /// `counting` fixes how the domain may be touched (see nvm/stats.hpp):
  /// `shared` (the default) when threads access the domain's cells at once,
  /// `confined` when one thread at a time does and each hands over to the
  /// next, as in a sim::world. It cannot be changed later. A confined domain
  /// bumps its instruction counters with a plain load and store, and
  /// attach, detach, drain_journal, crash_reset, persist_all and
  /// set_attach_recorder skip the mutex and update the footprint counters
  /// the same way, and its cells use plain loads and stores; a shared domain
  /// locks, uses fetch_add, and its cells use seq_cst atomics.
  explicit pmem_domain(stats::sharing counting = stats::sharing::shared)
      : stats_(counting) {}
  pmem_domain(const pmem_domain&) = delete;
  pmem_domain& operator=(const pmem_domain&) = delete;

  /// Process-wide default domain. Individual worlds/tests may instantiate
  /// their own to isolate crash bookkeeping.
  static pmem_domain& global();

  /// True when the domain was built stats::sharing::confined: its cells are
  /// then plain memory (see nvm/pcell.hpp).
  bool confined() const noexcept {
    return stats_.mode() == stats::sharing::confined;
  }

  cache_model model() const noexcept { return model_; }
  void set_model(cache_model m) noexcept { model_ = m; }

  bool auto_persist() const noexcept { return auto_persist_; }
  void set_auto_persist(bool on) noexcept { auto_persist_ = on; }

  persist_model persist() const noexcept { return persist_; }
  void set_persist_model(persist_model m) noexcept { persist_ = m; }
  /// True when stores are write-behind buffered (see persist_model).
  bool buffered() const noexcept { return persist_ == persist_model::buffered; }

  /// Record that `cell`'s cached value may now diverge from its persisted
  /// image (a buffered store, or a migration image load). Cells register
  /// once per boundary interval; the journal is what epoch_boundary() and
  /// crash_reset() settle instead of walking every cell in the domain.
  /// Hot path: not locked — buffered persistency only runs under the
  /// simulator, whose step token already serializes all accesses (the
  /// free-running threads backend rejects buffered mode).
  void note_dirty(persistent_base& cell) {
    if (cell.journaled_) return;
    cell.journaled_ = true;
    journal_.push_back(&cell);
  }

  /// Epoch boundary of the buffered model: drain the write-behind journal so
  /// everything stored so far is crash-persistent. No-op under strict
  /// persistency. The client runtime calls this at every history event
  /// (invoke/response/recovery), which keeps completed operations durable —
  /// the journal makes each boundary O(cells dirtied since the last one).
  void epoch_boundary() noexcept {
    if (!buffered() || journal_.empty()) return;
    drain_journal();
  }

  /// Deliver the memory effect of a system-wide crash. Must be called while
  /// no process is mid-access (the simulator quiesces every process first).
  void crash_reset() noexcept;

  /// Did the most recent crash_reset() discard stores that were not yet
  /// persistent? Only ever true under buffered persistency — the signature
  /// bit of a crash state the strict model cannot reach.
  bool last_crash_lost() const noexcept { return last_crash_lost_; }

  /// Checkpoint every cell's current value as persisted.
  void persist_all() noexcept;

  /// Instruction counters. Concurrent bumps are safe only when the domain
  /// was built with stats::sharing::shared.
  stats& counters() noexcept { return stats_; }
  const stats& counters() const noexcept { return stats_; }

  /// Explicit ordering fence (counted; the emulation is sequentially
  /// consistent so the fence has no semantic effect here).
  void fence() noexcept { stats_.add_fence(); }

  void attach(persistent_base& cell);
  void detach(persistent_base& cell) noexcept;

  /// Persistent cells currently attached to this domain.
  std::uint64_t cells_attached() const noexcept {
    return cells_attached_.load(std::memory_order_relaxed);
  }
  /// Persisted-image bytes of the attached cells (one image per cell — the
  /// crash-surviving footprint, the quantity the paper's space bounds count).
  std::uint64_t bytes_attached() const noexcept {
    return bytes_attached_.load(std::memory_order_relaxed);
  }

  /// While set, every attach() also appends the cell to `*sink` (in attach
  /// order). Harnesses wrap registry factories with this to learn which
  /// cells a freshly constructed object owns — the cell group whose
  /// pmem_image migration transplants. Pass nullptr to stop recording.
  void set_attach_recorder(std::vector<persistent_base*>* sink) noexcept;

  /// Store buffer of the process currently holding the step token, under a
  /// relaxed visibility model (wmm::visibility_model tso/pso). Null — the
  /// default, and always the case under sc — means stores apply directly
  /// and loads read the cell, the historical sequentially consistent path.
  /// `sim::world` points this at the stepping process's buffer for exactly
  /// the duration of its step; pcell routes stores/loads through it.
  wmm::store_buffer* active_store_buffer() const noexcept {
    return active_buffer_;
  }
  void set_active_store_buffer(wmm::store_buffer* b) noexcept {
    active_buffer_ = b;
  }

 private:
  void drain_journal() noexcept;

  /// The mutex of a shared domain, held for the caller's scope; nothing for
  /// a confined one.
  std::unique_lock<std::mutex> lock() noexcept {
    return confined() ? std::unique_lock<std::mutex>{}
                      : std::unique_lock<std::mutex>{mu_};
  }
  /// Add `delta` to a footprint counter as the instruction counters count.
  void count(std::atomic<std::uint64_t>& c, std::int64_t delta) noexcept {
    // A negative delta wraps, as fetch_sub would.
    stats::add(c, static_cast<std::uint64_t>(delta), stats_.mode());
  }

  std::mutex mu_;
  persistent_base* head_ = nullptr;
  /// Cells whose cached value may diverge from their persisted image since
  /// the last boundary (buffered persistency only). See note_dirty().
  std::vector<persistent_base*> journal_;
  cache_model model_ = cache_model::private_cache;
  persist_model persist_ = persist_model::strict;
  bool last_crash_lost_ = false;
  bool auto_persist_ = false;
  std::vector<persistent_base*>* attach_sink_ = nullptr;
  wmm::store_buffer* active_buffer_ = nullptr;
  /// Footprint counters (relaxed atomics: metrics only, readable without the
  /// mutex; attach/detach serialize the updates, under mu_ in a shared
  /// domain and by confinement in a confined one).
  std::atomic<std::uint64_t> cells_attached_{0};
  std::atomic<std::uint64_t> bytes_attached_{0};
  stats stats_;
};

/// RAII attach recording over one domain: construction starts recording into
/// `sink`, destruction stops it.
class attach_recording {
 public:
  attach_recording(pmem_domain& dom, std::vector<persistent_base*>& sink)
      : dom_(&dom) {
    dom_->set_attach_recorder(&sink);
  }
  ~attach_recording() { dom_->set_attach_recorder(nullptr); }
  attach_recording(const attach_recording&) = delete;
  attach_recording& operator=(const attach_recording&) = delete;

 private:
  pmem_domain* dom_;
};

}  // namespace detect::nvm
