// detect::api::harness — the front door of the repo.
//
// One object that owns and wires the four pieces every scenario needs —
// sim::world, core::announcement_board, hist::log, core::runtime — built
// from one api::run_policy, usually through the builder's shared run
// setters (api/run_policy.hpp):
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
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/run_policy.hpp"
#include "history/checker.hpp"

namespace detect::api {

class harness : public typed_adders<harness> {
 public:
  class builder;

  /// Wire a world, board, log and runtime per `policy`. Throws
  /// std::invalid_argument when it sets both crash plans.
  explicit harness(run_policy policy);

  // ---- object creation -----------------------------------------------------

  /// Instantiate a registry kind and register it under a fresh id.
  object_handle add(const std::string& kind, const object_params& params = {});

  /// Same, under a caller-chosen id (fresh per the runtime's duplicate
  /// check). Sharded executors route globally-unique ids into per-shard
  /// harnesses with this.
  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params = {});

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

  /// Append `ops` to pid's script (see core::runtime::extend_script): the
  /// next run() executes only the appended ops.
  void extend_script(int pid, const std::vector<hist::op_desc>& ops) {
    rt_->extend_script(pid, ops);
  }

  void set_fail_policy(core::runtime::fail_policy p) { rt_->set_fail_policy(p); }

  /// Drive all scripts to completion under the policy's scheduler and crash
  /// plan (fresh instances per call, so runs are reproducible).
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
  const hist::log& log() const noexcept { return *log_; }
  core::runtime& runtime() noexcept { return *rt_; }
  nvm::pmem_domain& domain() noexcept { return world_->domain(); }

 private:
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

  run_policy pol_;
  std::unique_ptr<sim::world> world_;
  std::unique_ptr<core::announcement_board> board_;
  std::unique_ptr<hist::log> log_;
  std::unique_ptr<core::runtime> rt_;
  std::vector<std::unique_ptr<core::detectable_object>> objects_;
  std::map<std::uint32_t, hosted_object> hosted_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<hist::spec>>> specs_;
  std::uint32_t next_id_ = 0;
};

/// The shared run setters (api::run_builder) over a plain run_policy.
class harness::builder : public run_builder<harness::builder, run_policy> {
 public:
  harness build() const { return harness(pol_); }
};

}  // namespace detect::api
