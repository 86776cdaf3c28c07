// detect::api::harness — the front door of the repo.
//
// One object that owns and wires the four pieces every scenario needs —
// sim::world, core::announcement_board, hist::log, core::runtime — behind a
// fluent builder:
//
//   auto h = api::harness::builder()
//                .procs(3)
//                .fail_policy(core::runtime::fail_policy::retry)
//                .seed(42)
//                .crash_at({12, 31})
//                .build();
//   auto r = h.add_reg();
//   auto q = h.add_queue();
//   h.script(0, {r.write(1), q.enq(7)});
//   h.script(1, {q.deq(), r.read()});
//   auto report = h.run();
//   auto check = h.check();   // durable linearizability + detectability
//
// Objects are created through typed adders (or by registry kind string),
// registered with the runtime under fresh ids, and paired with their
// sequential specs so `check()` can assemble the product spec automatically.
//
// For proof-schedule harnesses (the Theorem-2 style "run p until it is about
// to return" drivers) the underlying world/board/log/runtime stay reachable
// through accessors, and submit_op / drive / crash_now wrap the recurring
// manual-driving boilerplate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "core/runtime.hpp"
#include "history/checker.hpp"
#include "sched/strategy.hpp"

namespace detect::api {

class harness {
 public:
  class builder;

  // ---- object creation -----------------------------------------------------

  /// Instantiate a registry kind and register it under a fresh id.
  object_handle add(const std::string& kind, const object_params& params = {});

  /// Same, under a caller-chosen id (fresh per the runtime's duplicate
  /// check). Sharded executors route globally-unique ids into per-shard
  /// harnesses with this.
  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params = {});

  reg add_reg(value_t init = 0) { return reg(add("reg", {.init = init})); }
  cas add_cas(value_t init = 0) { return cas(add("cas", {.init = init})); }
  counter add_counter(value_t init = 0) {
    return counter(add("counter", {.init = init}));
  }
  swap_reg add_swap(value_t init = 0) {
    return swap_reg(add("swap", {.init = init}));
  }
  tas add_tas() { return tas(add("tas")); }
  queue add_queue(std::size_t capacity = 64) {
    return queue(add("queue", {.capacity = capacity}));
  }
  stack add_stack(std::size_t capacity = 64) {
    return stack(add("stack", {.capacity = capacity}));
  }
  max_reg add_max_reg() { return max_reg(add("max_reg")); }
  lock add_lock() { return lock(add("lock")); }

  /// Register an externally constructed object under a fresh id, pairing it
  /// with `spec` for checking. The harness takes ownership.
  object_handle add_object(std::unique_ptr<core::detectable_object> obj,
                           std::unique_ptr<hist::spec> spec, op_family family,
                           std::string kind = "custom");

  // ---- object migration (executor-level shard rebalancing) ------------------

  /// The extract_object() preconditions, checked without extracting: empty
  /// when `id` can migrate away right now, else the error message
  /// extract_object() would throw. Lets callers validate a whole migration
  /// plan before moving anything.
  std::string migration_blocker(std::uint32_t id);

  /// Tear `id` out of this harness: unregister it from the runtime, drop its
  /// spec, destroy the object, and return the NVM image of every cell it
  /// attached during construction — the portable representation
  /// adopt_object() rebuilds from. Throws std::invalid_argument when `id` is
  /// not a migratable object of this harness, or when some process has an
  /// announced-but-unrecovered operation on it (migrating mid-recovery would
  /// strand the announcement).
  nvm::pmem_image extract_object(std::uint32_t id);

  /// Inverse of extract_object(): instantiate `kind` under `id` as add_as()
  /// would, then overwrite its freshly-initialized cells with `image`.
  /// Throws std::invalid_argument when the image does not match the layout
  /// `kind`/`params` construct (migration requires identical declarations).
  object_handle adopt_object(std::uint32_t id, const std::string& kind,
                             const object_params& params,
                             const nvm::pmem_image& image);

  // ---- scripting & running -------------------------------------------------

  void script(int pid, std::vector<hist::op_desc> ops) {
    rt_->set_script(pid, std::move(ops));
  }

  void set_fail_policy(core::runtime::fail_policy p) { rt_->set_fail_policy(p); }

  /// Drive all scripts to completion under the builder-configured scheduler
  /// and crash plan (fresh instances per call, so runs are reproducible).
  sim::run_report run();

  /// Replace the random crash plan's seed for subsequent run() calls (no-op
  /// without a crash_random plan). run() rebuilds the plan from the same
  /// seed each call, so without this every round of a multi-round driver
  /// crashes at identical draw positions; round-based services reseed
  /// deterministically per round to vary the crash points.
  void reseed_crashes(std::uint64_t seed);

  /// Same, under caller-supplied policies.
  sim::run_report run(sim::scheduler& sched, sim::crash_plan* crashes = nullptr) {
    prepare_run();
    return rt_->run(sched, crashes);
  }

  // ---- verification --------------------------------------------------------

  /// Product spec of every object added so far (clones of the stored
  /// prototypes — call as often as needed).
  std::unique_ptr<hist::spec> spec() const;

  /// Check the recorded history for durable linearizability + detectability
  /// against the assembled spec.
  hist::check_result check() const {
    return hist::check_durable_linearizability(log_->snapshot(), *spec());
  }

  /// Same verdict via per-object decomposition: one linearization per added
  /// object instead of one product-spec search — exponentially cheaper on
  /// multi-object histories (see hist::checker). Budget, shared memo, and
  /// the per-object fan-out all ride in one hist::check_options.
  hist::check_result check_per_object(const hist::check_options& opt = {}) const {
    return hist::check_durable_linearizability_per_object(
        log_->snapshot(), object_specs(), opt);
  }

  /// (id, spec) of every object added so far; specs stay owned by the
  /// harness.
  hist::object_spec_list object_specs() const {
    hist::object_spec_list out;
    for (const auto& [id, proto] : specs_) out.emplace_back(id, proto.get());
    return out;
  }

  std::vector<hist::event> events() const { return log_->snapshot(); }
  std::string log_text() const { return log_->to_string(); }

  // ---- manual-driving helpers (proof-schedule harnesses) --------------------

  /// Submit a single announce-and-invoke task for `pid` (outside scripts).
  void submit_op(int pid, hist::op_desc desc, std::uint64_t client_seq);

  /// Submit a recovery task for `pid` (Op.Recover per its announcement).
  void submit_recovery(int pid) {
    world_->submit(pid, [rt = rt_.get(), pid] { rt->maybe_recover(pid); });
  }

  /// Deliver a system-wide crash and record it in the history log.
  void crash_now();

  /// Step `pid` while it is runnable.
  void drive(int pid);

  /// Step any runnable process (lowest pid first) until none remain.
  void drive_all();

  /// Mark every cell's current value as persisted (shared-cache setups call
  /// this once the initial objects are in place).
  void persist_all() { domain().persist_all(); }

  // ---- wired components ----------------------------------------------------

  int nprocs() const noexcept { return world_->nprocs(); }
  sim::world& world() noexcept { return *world_; }
  core::announcement_board& board() noexcept { return *board_; }
  hist::log& log() noexcept { return *log_; }
  core::runtime& runtime() noexcept { return *rt_; }
  nvm::pmem_domain& domain() noexcept { return world_->domain(); }

 private:
  struct run_config {
    std::optional<std::uint64_t> sched_seed;  // nullopt → round robin
    sched::sched_policy sched;                // strategy the seed drives
    std::vector<std::uint64_t> crash_steps;
    std::optional<std::tuple<std::uint64_t, double, std::uint64_t>> crash_random;
  };

  harness(int nprocs, sim::world_config wcfg, core::runtime::fail_policy policy,
          bool shared_cache, bool auto_persist, nvm::persist_model persist,
          run_config rcfg);

  // Shared-cache and buffered-persistency setups start from a fully
  // persisted image (the objects' initialization stores are not part of the
  // measured execution).
  void prepare_run() {
    if (domain().model() == nvm::cache_model::shared_cache ||
        domain().buffered()) {
      persist_all();
    }
  }

  /// One registry-created object: everything needed to check it, migrate it
  /// away (kind/params rebuild the layout, `cells` is the NVM state in
  /// attach order), and destroy it.
  struct hosted_object {
    std::string kind;
    object_params params;
    std::vector<std::unique_ptr<core::detectable_object>> owned;
    std::vector<nvm::persistent_base*> cells;
  };

  std::unique_ptr<sim::world> world_;
  std::unique_ptr<core::announcement_board> board_;
  std::unique_ptr<hist::log> log_;
  std::unique_ptr<core::runtime> rt_;
  std::vector<std::unique_ptr<core::detectable_object>> objects_;
  std::map<std::uint32_t, hosted_object> hosted_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<hist::spec>>> specs_;
  std::uint32_t next_id_ = 0;
  run_config rcfg_;
};

class harness::builder {
 public:
  builder& procs(int n) {
    nprocs_ = n;
    return *this;
  }
  builder& max_steps(std::uint64_t n) {
    wcfg_.max_steps = n;
    return *this;
  }
  /// Wholesale world_config (max_steps, engine, visibility, drain points) —
  /// how the executor layer forwards its assembled config per shard.
  builder& world(sim::world_config w) {
    wcfg_ = std::move(w);
    return *this;
  }
  builder& fail_policy(core::runtime::fail_policy p) {
    policy_ = p;
    return *this;
  }
  /// Seeded random scheduler for run(); default is round robin.
  builder& seed(std::uint64_t s) {
    rcfg_.sched_seed = s;
    return *this;
  }
  /// Schedule-exploration strategy the seed drives (see detect::sched).
  /// Default: uniform_random, i.e. the historical seeded behavior.
  builder& schedule(sched::sched_policy p) {
    rcfg_.sched = std::move(p);
    return *this;
  }
  /// Persistency-visibility model (see nvm::persist_model). Default strict.
  builder& persist(nvm::persist_model m) {
    persist_ = m;
    return *this;
  }
  /// Store-buffer visibility model between live processes (see
  /// wmm::visibility_model). Default sc — the historical interleaving
  /// semantics. Orthogonal to persist(): drains order before persists.
  builder& visibility(wmm::visibility_model m) {
    wcfg_.visibility = m;
    return *this;
  }
  /// Scripted full-drain steps (tso/pso only; see world_config::drain_points).
  builder& drain_at(std::vector<std::uint64_t> steps) {
    wcfg_.drain_points = std::move(steps);
    return *this;
  }
  /// Crash exactly when the global step counter hits each listed value.
  builder& crash_at(std::vector<std::uint64_t> steps) {
    rcfg_.crash_steps = std::move(steps);
    return *this;
  }
  /// Crash with probability `rate` before each step, at most `max` times.
  builder& crash_random(std::uint64_t s, double rate, std::uint64_t max) {
    rcfg_.crash_random = {s, rate, max};
    return *this;
  }
  /// Shared-cache memory model; `auto_persist` applies the §6 syntactic
  /// flush/fence transformation to every shared access.
  builder& shared_cache(bool auto_persist = true) {
    shared_cache_ = true;
    auto_persist_ = auto_persist;
    return *this;
  }

  harness build() {
    return harness(nprocs_, wcfg_, policy_, shared_cache_, auto_persist_,
                   persist_, rcfg_);
  }

 private:
  int nprocs_ = 2;
  sim::world_config wcfg_;
  core::runtime::fail_policy policy_ = core::runtime::fail_policy::skip;
  bool shared_cache_ = false;
  bool auto_persist_ = false;
  nvm::persist_model persist_ = nvm::persist_model::strict;
  run_config rcfg_;
};

/// Free-running façade for real-thread benchmarks: the emulated NVM domain
/// and announcement board without a simulated world. Objects still come from
/// the registry; `reset_aux` performs the caller-side auxiliary reset the
/// client runtime would do (skipped for objects that declare they need none).
class arena {
 public:
  explicit arena(int nprocs) : nprocs_(nprocs), board_(nprocs, dom_) {}

  object_handle add(const std::string& kind, const object_params& params = {});

  /// Ann_p.resp := ⊥, Ann_p.CP := 0 — Definition 1's auxiliary state,
  /// provided by the caller before each invocation.
  void reset_aux(int pid) {
    board_.of(pid).resp.store(hist::k_bottom);
    board_.of(pid).cp.store(0);
  }

  int nprocs() const noexcept { return nprocs_; }
  nvm::pmem_domain& domain() noexcept { return dom_; }
  core::announcement_board& board() noexcept { return board_; }

 private:
  int nprocs_;
  nvm::pmem_domain dom_;
  core::announcement_board board_;
  std::vector<std::unique_ptr<core::detectable_object>> objects_;
  std::uint32_t next_id_ = 0;
};

}  // namespace detect::api
