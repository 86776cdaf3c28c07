// detect::api::executor — pluggable execution backends behind one interface.
//
// An executor runs scripted workloads over registry objects and hands back a
// checkable history; which machinery executes them is a builder policy. The
// builder carries the harness's run setters (api/run_policy.hpp) plus the
// backend choice:
//
//   auto ex = api::executor::builder()
//                 .backend(api::exec_backend::sharded)
//                 .shards(4)
//                 .procs(8)
//                 .seed(42)
//                 .build();
//   auto c0 = ex->add_counter();
//   auto c1 = ex->add_counter();
//   ex->script(0, {c0.add(1), c1.add(1)});
//   auto report = ex->run();
//   auto check = ex->check();   // per-object durable linearizability
//
// Backends:
//   single   one sim::world driven by one harness — exactly today's harness
//            semantics, behavior-preserving.
//   sharded  K independent sim::world/core::runtime shards; objects route by
//            the builder's placement policy (modulo/hash/range/pinned — see
//            api/placement.hpp; default is the historical id % K), scripts
//            split per shard preserving each process's per-shard program
//            order, shards run on parallel driver threads (each world is
//            deterministic in isolation, so replays stay bit-reproducible),
//            and the per-shard event logs merge into one hist::log by the
//            stable order (run, shard-local index, shard). Between runs,
//            migrate(id, shard) transplants an object to another world
//            through its persistent NVM image and rebalance(policy) migrates
//            everything to a new policy's assignment — the per-object
//            histories stay checkable across moves.
//   threads  free-running real threads over the emulated NVM domain (the
//            arena path): no simulator, no crashes, nondeterministic
//            schedules — post-hoc per-object linearizability checking makes
//            it a lincheck-style stress driver on real cores.
//
// `check()` always uses per-object decomposition (one linearization per
// object, never a product spec): the paper's objects are per-object
// detectable and linearizability is compositional, so the verdict is the
// same while the search space collapses from a product to a sum. On the
// sharded backend the decomposition is also what makes checking *possible*:
// a process's ops on different shards overlap in the merged log, which only
// per-object projection (each object lives in exactly one shard) untangles.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/harness.hpp"
#include "api/placement.hpp"

namespace detect::api {

enum class exec_backend : std::uint8_t { single, sharded, threads };

const char* backend_name(exec_backend b) noexcept;
/// Inverse of backend_name(). Throws std::invalid_argument on unknown names.
exec_backend backend_from_name(const std::string& name);

/// Everything a backend needs to build itself — the builder's output: the
/// run policy every world gets, plus how many worlds there are and how
/// objects and drivers spread over them.
struct exec_policy : run_policy {
  exec_backend backend = exec_backend::single;
  int shards = 1;  // sharded backend: number of sim::world shards
  /// Sharded backend: which shard hosts each object (see api/placement.hpp).
  placement_policy placement;
  /// Sharded backend: how many shards one run() drives at once on the
  /// process-wide util::task_pool. 0 = auto (min(shards, hardware cores),
  /// inline below 2 lanes). An explicit value wins over auto AND over the
  /// DETECT_POOL_THREADS env override; 1 means "run shards sequentially
  /// inline" (one lane would only add handoff latency over the submitter's
  /// own loop).
  int pool_threads = 0;
};

class executor : public typed_adders<executor> {
 public:
  class builder;

  virtual ~executor() = default;

  virtual exec_backend backend() const noexcept = 0;
  virtual int nprocs() const noexcept = 0;
  /// Shard count (1 off the sharded backend).
  virtual int shards() const noexcept = 0;
  /// Which shard hosts `object_id` (0 off the sharded backend). For hosted
  /// objects this is the *current* home — migrations move it; for ids not
  /// added yet it is the placement policy's prediction for the next
  /// declaration.
  virtual int shard_of(std::uint32_t object_id) const noexcept = 0;
  /// The active placement policy (modulo off the sharded backend).
  virtual const placement_policy& placement() const noexcept = 0;
  /// Driver lanes a run() spreads its shards over (0 = inline on the
  /// submitting thread; always 0 off the sharded backend). See
  /// builder::pool_threads().
  virtual int pool_workers() const noexcept = 0;
  /// The current object→shard assignment as a pinned placement policy
  /// (sharded backend; trivially empty elsewhere). After migrations this is
  /// the ground truth the builder's policy no longer describes — feed it to
  /// rebalance() on a fresh executor to reproduce the layout.
  virtual placement_policy current_assignment() const = 0;

  // ---- object creation -----------------------------------------------------

  /// Instantiate a registry kind under a fresh globally-unique id, routed to
  /// its shard on the sharded backend.
  virtual object_handle add(const std::string& kind,
                            const object_params& params = {}) = 0;

  /// Same, under a caller-chosen id (fresh per the backend's duplicate
  /// check). Scenario replays use this to honor the object ids a
  /// scripted_scenario declares — on the sharded backend the id decides the
  /// hosting shard (`id % shards()`), so a scenario's routing is part of its
  /// identity, not an accident of creation order.
  virtual object_handle add_as(std::uint32_t id, const std::string& kind,
                               const object_params& params = {}) = 0;

  // ---- scripting & running -------------------------------------------------

  /// Install `pid`'s script (ops may target objects on any shard; the
  /// sharded backend splits them preserving per-shard program order).
  /// Calling script() again after run() *appends* to the process's program:
  /// the next run() executes only the newly scheduled ops — the multi-round
  /// workload shape migration scenarios use (run, migrate, run again).
  virtual void script(int pid, std::vector<hist::op_desc> ops) = 0;

  /// Drive every script to completion under the configured policy. Fresh
  /// scheduler/crash-plan instances per call keep runs reproducible.
  virtual sim::run_report run() = 0;

  /// Reseed the random crash plan for subsequent run() calls (no-op without
  /// one — including always on the threads backend, which rejects crash
  /// plans at build time). The sharded backend decorrelates its shards by
  /// mixing the shard index into the seed. Multi-round drivers (serve) call
  /// this per round so crash points vary while staying deterministic.
  virtual void reseed_crashes(std::uint64_t seed) = 0;

  // ---- live migration (sharded backend only) --------------------------------

  /// Transplant `object_id` to `shard`, between runs: the object's
  /// base-object state and detectability metadata move to the target world's
  /// runtime through the persistent (NVM) representation, and its history
  /// carries over so check() stays sound across the move. A no-op when the
  /// object already lives on `shard`. Throws std::invalid_argument off the
  /// sharded backend, for unknown ids, out-of-range shards, or an object
  /// with an announced-but-unrecovered operation.
  virtual void migrate(std::uint32_t object_id, int shard) = 0;

  /// Adopt `policy` (validated against shards()) and migrate every hosted
  /// object to its assignment, preserving each object's original declaration
  /// index. Returns the number of objects that actually moved. Future add()
  /// calls route by the new policy.
  virtual int rebalance(const placement_policy& policy) = 0;

  // ---- history & verification ---------------------------------------------

  /// The recorded history. Sharded: per-shard logs merged by the stable
  /// global order (run, then shard-local index, then shard id) — each
  /// shard's log is a subsequence, runs stay chronological, so per-object
  /// real-time order is intact.
  virtual std::vector<hist::event> events() const = 0;

  /// Durable linearizability + detectability via per-object decomposition.
  /// All knobs ride in one hist::check_options: the node budget, an optional
  /// shared sub-check memo (the differ threads one across a scenario's
  /// variant replays so identical object streams linearize once), and the
  /// per-object fan-out (`jobs`) — verdicts, messages, and node counts are
  /// byte-identical for every jobs value (see docs/checking.md).
  virtual hist::check_result check(
      const hist::check_options& opt = {}) const = 0;

  std::string log_text() const;
};

/// The shared run setters (api::run_builder) plus the backend choice.
/// Crash steps and drain points count each world's own steps, so on the
/// sharded backend every shard crashes at the listed values.
class executor::builder : public run_builder<executor::builder, exec_policy> {
 public:
  builder& backend(exec_backend b) {
    pol_.backend = b;
    return *this;
  }
  /// Shard count for the sharded backend. build() rejects shards > 1 on the
  /// other backends — they run exactly one world.
  builder& shards(int k) {
    pol_.shards = k;
    return *this;
  }
  /// Shard-placement policy for the sharded backend (default: modulo, the
  /// historical id % K routing). Pinned maps are validated against the shard
  /// count at build() time.
  builder& placement(placement_policy p) {
    pol_.placement = std::move(p);
    return *this;
  }
  /// Driver lanes for the sharded backend: how many shards run in parallel
  /// on the process-wide pool. 0 (default) = auto-size to
  /// min(shards, hardware cores); 1 = inline sequential; the
  /// DETECT_POOL_THREADS environment variable overrides the auto choice
  /// only, so one-core CI and multi-core hosts bench the same binary.
  /// build() rejects negative values and any explicit value off the sharded
  /// backend.
  builder& pool_threads(int n) {
    pol_.pool_threads = n;
    return *this;
  }

  std::unique_ptr<executor> build() const;
};

/// Instantiate the backend `p` selects. Throws std::invalid_argument on
/// nonsensical policies: shards < 1, shards > 1 on a non-sharded backend,
/// pinned placement maps naming out-of-range shards, both crash plans at
/// once, or crash/shared-cache plans on the threads backend (which cannot
/// deliver simulated crashes); likewise non-default schedule strategies,
/// buffered persistency, or a tso/pso visibility model on the threads
/// backend (all need the simulated world).
std::unique_ptr<executor> make_executor(const exec_policy& p);

}  // namespace detect::api
