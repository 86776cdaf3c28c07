// detect::serve::server — a sessioned serving front-end over the sharded
// executor.
//
// The server turns the one-shot script/run/check executor workflow into a
// long-lived multi-client service:
//
//   ingest      submit() validates the op, charges admission, stamps it with
//               an admission ticket, and appends it to its home shard's
//               bounded queue. Queues drain in *batch rounds*: each round
//               pops up to batch_max_ops per shard (in arrival order),
//               scripts them onto the executor preserving per-session
//               per-shard program order, and drives one executor::run().
//   admission   Three independent brakes, all returning the retryable
//               `overloaded` status: a per-shard queue high-water mark, a
//               per-session token bucket (refilled each round), and a global
//               admitted-but-incomplete cap. shutdown() flips admission to
//               `shutting_down` and drains what was already admitted.
//   completion  After each round the server reads the events that round
//               appended, through a per-shard event cursor
//               (executor::events_since), in merged-log order: a `response`
//               — or a `recover_result(linearized)` for an op whose response
//               was lost to a crash — completes the matching inflight
//               ticket. Tickets wait in one lane per (shard, pid): a deque
//               in the world's client_seq order plus the seq of its front
//               slot, so an event indexes its slot directly and completed
//               slots pop off the front. Matching costs what the round
//               appended, not the history before it. A duplicate completion
//               (response persisted, then the crash landed before the
//               client's done_seq store, so recovery re-reports it) finds
//               its slot already done, or popped: first event wins,
//               callbacks fire exactly once. The executor runs
//               fail_policy::retry, so every admitted op eventually
//               completes — crashes delay completions, never drop them.
//   rebalance   A serve::rebalancer keeps a running per-object op sum over
//               a window of rounds; sustained per-shard imbalance triggers
//               executor::migrate() calls between rounds (the quiescent
//               point), each move logged into serve::stats. A move copies
//               no history (the executor records the stay it ends).
//               Objects with queued-but-unscripted ops are frozen for the
//               cycle — their queue position encodes their home shard,
//               which therefore must not change under them.
//
// Object ids are dense (add() takes the executor's next id), so every
// per-object table here — homes, a round's op counts, the frozen mask — is
// a vector indexed by id.
//
// Two operating modes, one code path:
//   deterministic (default)  no background thread; the caller turns the
//               crank with pump()/drain(). Latency is measured in batch
//               rounds — a logical clock — so a seeded workload replays to
//               identical stats. This is the soak-test and CI mode.
//   threaded    a dispatcher thread runs rounds when a shard batch fills or
//               batch_window elapses with work pending. Latency is wall-
//               clock microseconds. submit() stays non-blocking either way.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.hpp"
#include "serve/rebalancer.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"

namespace detect::serve {

struct serve_config {
  // ---- executor ------------------------------------------------------------
  /// The executor the server drives. The server always runs it on the
  /// sharded backend under fail_policy::retry. The step budget counts steps
  /// cumulatively across rounds, so a serving process needs one sized for
  /// its lifetime, not one run — hence the enormous default. A non-sc
  /// visibility model is a stress mode: the scheduler interleaves
  /// buffered-store drains with op steps while the serving contract (every
  /// admitted op completes) stays intact. A random crash plan is drawn
  /// afresh each batch round. Only server::builder's setters write it, so
  /// its other fields (crash steps, drain points, shared cache) keep their
  /// defaults.
  api::exec_policy exec = [] {
    api::exec_policy p;
    p.shards = 4;
    p.nprocs = 8;
    p.wcfg.max_steps = 1ULL << 62;
    return p;
  }();

  // ---- ingest / batching ---------------------------------------------------
  /// Batch size trigger: a round takes at most this many ops per shard.
  std::size_t batch_max_ops = 256;
  /// Deadline trigger (threaded mode): run a round at latest this long
  /// after work arrived, even if no batch filled.
  std::chrono::microseconds batch_window{500};

  // ---- admission -----------------------------------------------------------
  /// Per-shard pending-queue high-water mark; submits beyond it bounce.
  std::size_t queue_high_water = 1024;
  /// Per-session token bucket: capacity, and tokens restored per round.
  double session_tokens = 256.0;
  double session_refill = 256.0;
  /// Global cap on admitted-but-incomplete ops across all sessions.
  std::size_t global_inflight = 1u << 20;

  rebalance_policy rebalance;

  /// false = deterministic pump()/drain() mode; true = dispatcher thread.
  bool threaded = false;
};

class server : public api::typed_adders<server> {
 public:
  class builder;

  ~server();  // graceful: shutdown() if the caller has not already

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  // ---- sessions & objects --------------------------------------------------

  session open_session();

  /// Register a durable object (registry kind) with the service. Objects
  /// route to shards by the configured placement policy and may be moved
  /// later by the rebalancer. Blocks while a batch round is executing.
  api::object_handle add(const std::string& kind,
                         const api::object_params& params = {});

  // ---- turning the crank ---------------------------------------------------

  /// Deterministic mode: run one batch round. Returns false (and does
  /// nothing) when no ops are pending. Throws std::logic_error in threaded
  /// mode, where the dispatcher owns the crank.
  bool pump();

  /// Run/wait until every admitted op has completed: loops pump() in
  /// deterministic mode, blocks on the dispatcher in threaded mode.
  void drain();

  /// Graceful shutdown: new submits get `shutting_down`, already-admitted
  /// work drains to completion, the dispatcher (if any) exits. Idempotent;
  /// the destructor calls it.
  void shutdown();

  // ---- observation ---------------------------------------------------------

  stats snapshot() const;

  /// Durable linearizability + detectability of everything served so far,
  /// per object, including across migrations. Blocks while a round runs.
  /// The options carry the node budget and the per-object check fan-out
  /// (hist::check_options::jobs) — a long soak's certificate can use the
  /// same parallel driver the fuzzer does.
  hist::check_result check(const hist::check_options& opt = {}) const;

  /// The executor's current object→shard assignment (reflects rebalancer
  /// moves).
  api::placement_policy current_assignment() const;

  /// The merged event log served so far.
  std::vector<hist::event> events() const;

  int shards() const noexcept { return cfg_.exec.shards; }
  int procs() const noexcept { return cfg_.exec.nprocs; }
  const serve_config& config() const noexcept { return cfg_; }

 private:
  friend class session;

  /// Only server::builder constructs a server: its setters are the whole
  /// serving surface, and the server fixes backend and fail policy itself.
  explicit server(serve_config cfg);

  struct pending_op {
    std::uint64_t ticket = 0;
    std::uint64_t session = 0;
    int pid = 0;
    hist::op_desc op;
    completion_fn cb;
    std::uint64_t submit_tick = 0;
  };

  struct session_record {
    std::uint64_t id = 0;
    int pid = 0;
    double tokens = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
  };

  struct inflight_rec {
    std::uint64_t ticket = 0;
    std::uint64_t session = 0;
    std::uint32_t object = 0;
    completion_fn cb;
    std::uint64_t submit_tick = 0;
    bool done = false;
  };

  /// The inflight ops one pid has on one shard's world, in that world's
  /// client_seq numbering — exactly what response/recover events carry:
  /// slot i holds seq `base + i`, so the next scripted op takes seq
  /// `base + slots.size()`. Safe to index by the object's home shard
  /// because that home is stable from admission to scripting (queued
  /// objects are frozen against moves), and a round's events are matched
  /// before its moves.
  struct lane {
    std::deque<inflight_rec> slots;
    std::uint64_t base = 1;  // each world numbers a pid's ops from 1
  };
  lane& lane_of(int shard, int pid) {
    return lanes_[static_cast<std::size_t>(shard) *
                      static_cast<std::size_t>(cfg_.exec.nprocs) +
                  static_cast<std::size_t>(pid)];
  }

  submit_status submit(std::uint64_t session_id, const hist::op_desc& op,
                       completion_fn cb);
  /// Copy of the session's record (default-constructed for unknown ids) —
  /// the backing store of the session handle's counter accessors.
  session_record session_snapshot(std::uint64_t id) const;

  /// One batch round: collect → script → run → complete → refill →
  /// rebalance. Returns false when no ops were pending.
  bool run_round();
  void dispatcher_main();
  bool batch_ready_locked() const;
  std::uint64_t now_tick_locked() const;

  serve_config cfg_;
  std::unique_ptr<api::executor> ex_;
  std::chrono::steady_clock::time_point start_;

  /// Serializes all executor access (rounds, add, check, migration).
  /// Ordering: exec_mu_ before mu_, never the reverse.
  mutable std::mutex exec_mu_;
  /// Guards every field below.
  mutable std::mutex mu_;
  std::condition_variable cv_work_;     // submit → dispatcher
  std::condition_variable cv_drained_;  // round done → drain() waiters

  bool stopping_ = false;
  std::uint64_t next_session_ = 0;
  std::uint64_t next_ticket_ = 0;

  std::vector<session_record> sessions_;        // by session id
  std::vector<std::deque<pending_op>> queues_;  // per shard, arrival order
  std::size_t pending_total_ = 0;
  std::vector<lane> lanes_;  // by shard * procs + pid
  std::size_t inflight_count_ = 0;  // scripted, not yet completed
  std::vector<int> homes_;          // object → current shard (-1: none)
  /// Where completion matching stopped reading each shard's log.
  std::vector<std::size_t> event_cursor_;

  rebalancer reb_;

  // Stats accumulators (all under mu_).
  std::uint64_t submitted_ = 0, admitted_ = 0, completed_ = 0;
  std::uint64_t rejected_queue_ = 0, rejected_tokens_ = 0;
  std::uint64_t rejected_global_ = 0, rejected_shutdown_ = 0;
  std::uint64_t rejected_invalid_ = 0;
  std::uint64_t rounds_ = 0, batches_ = 0, batch_ops_ = 0, max_batch_ = 0;
  std::uint64_t crashes_ = 0, steps_ = 0;
  std::uint64_t nvm_cells_ = 0, nvm_bytes_ = 0;
  std::vector<shard_stats> shard_stats_;
  std::vector<move_record> moves_;
  latency_histogram lat_;

  std::thread dispatcher_;
};

class server::builder {
 public:
  builder& shards(int k) { cfg_.exec.shards = k; return *this; }
  builder& procs(int n) { cfg_.exec.nprocs = n; return *this; }
  builder& placement(api::placement_policy p) {
    cfg_.exec.placement = std::move(p);
    return *this;
  }
  builder& max_steps(std::uint64_t n) {
    cfg_.exec.wcfg.max_steps = n;
    return *this;
  }
  builder& seed(std::uint64_t s) { cfg_.exec.sched_seed = s; return *this; }
  builder& schedule(sched::sched_policy p) {
    cfg_.exec.sched = std::move(p);
    return *this;
  }
  builder& persist(nvm::persist_model m) {
    cfg_.exec.persist = m;
    return *this;
  }
  builder& visibility(wmm::visibility_model m) {
    cfg_.exec.wcfg.visibility = m;
    return *this;
  }
  builder& crash_random(std::uint64_t s, double rate, std::uint64_t max) {
    cfg_.exec.crash_random = {s, rate, max};
    return *this;
  }
  builder& batch_max_ops(std::size_t n) { cfg_.batch_max_ops = n; return *this; }
  builder& batch_window(std::chrono::microseconds w) {
    cfg_.batch_window = w;
    return *this;
  }
  builder& queue_high_water(std::size_t n) {
    cfg_.queue_high_water = n;
    return *this;
  }
  builder& session_tokens(double capacity, double refill) {
    cfg_.session_tokens = capacity;
    cfg_.session_refill = refill;
    return *this;
  }
  builder& global_inflight(std::size_t n) { cfg_.global_inflight = n; return *this; }
  builder& rebalance(rebalance_policy p) { cfg_.rebalance = p; return *this; }
  builder& threaded(bool on = true) { cfg_.threaded = on; return *this; }

  std::unique_ptr<server> build() const {
    return std::unique_ptr<server>(new server(cfg_));
  }

 private:
  serve_config cfg_;
};

}  // namespace detect::serve
