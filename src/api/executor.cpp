// The three execution backends behind detect::api::executor.
#include "api/executor.hpp"

#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>

namespace detect::api {

const char* backend_name(exec_backend b) noexcept {
  switch (b) {
    case exec_backend::single: return "single";
    case exec_backend::sharded: return "sharded";
    case exec_backend::threads: return "threads";
  }
  return "?";
}

exec_backend backend_from_name(const std::string& name) {
  if (name == "single") return exec_backend::single;
  if (name == "sharded") return exec_backend::sharded;
  if (name == "threads") return exec_backend::threads;
  throw std::invalid_argument("backend_from_name: unknown backend '" + name +
                              "'");
}

std::string executor::log_text() const {
  return hist::format_log(events());
}

std::unique_ptr<executor> executor::builder::build() const {
  return make_executor(pol_);
}

namespace {

/// Uniform script() contract across backends: a bad pid throws here, at
/// scripting time, not as an opaque error deep inside run().
void check_pid(int pid, int nprocs) {
  if (pid < 0 || pid >= nprocs) {
    throw std::invalid_argument("executor: script pid " + std::to_string(pid) +
                                " out of range for " + std::to_string(nprocs) +
                                " procs");
  }
}

/// Uniform migrate()/rebalance() error off the sharded backend.
[[noreturn]] void no_migration(exec_backend b) {
  throw std::invalid_argument(
      std::string("executor: migration needs exec_backend::sharded; the ") +
      backend_name(b) + " backend runs exactly one world");
}

/// Validate an events_since() cursor against the logs' current lengths
/// `ends` (one per shard); an empty cursor starts every log at 0.
void claim_cursor(std::vector<std::size_t>& cursor,
                  std::span<const std::size_t> ends) {
  if (cursor.empty()) cursor.assign(ends.size(), 0);
  if (cursor.size() != ends.size()) {
    throw std::invalid_argument(
        "executor: events_since cursor holds " +
        std::to_string(cursor.size()) + " position(s) for " +
        std::to_string(ends.size()) + " log(s)");
  }
  for (std::size_t k = 0; k < ends.size(); ++k) {
    if (cursor[k] > ends[k]) {
      throw std::invalid_argument(
          "executor: events_since cursor position " +
          std::to_string(cursor[k]) + " is past the end of log " +
          std::to_string(k) + " (" + std::to_string(ends[k]) + " events)");
    }
  }
}

/// events_since() over a backend with one log.
std::vector<hist::event> one_log_since(const hist::log& lg,
                                       std::vector<std::size_t>& cursor) {
  const std::size_t end = lg.size();
  claim_cursor(cursor, {&end, 1});
  std::vector<hist::event> out = lg.snapshot(cursor[0]);
  cursor[0] = end;
  return out;
}

// ---------------------------------------------------------------------------
// single — today's one-world harness, verbatim.

class single_executor final : public executor {
 public:
  explicit single_executor(const exec_policy& p) : pol_(p), h_(p) {}

  exec_backend backend() const noexcept override {
    return exec_backend::single;
  }
  int nprocs() const noexcept override { return pol_.nprocs; }
  int shards() const noexcept override { return 1; }
  int shard_of(std::uint32_t) const noexcept override { return 0; }
  const placement_policy& placement() const noexcept override {
    return pol_.placement;
  }
  int pool_workers() const noexcept override { return 0; }
  placement_policy current_assignment() const override {
    return pinned_placement({});
  }

  object_handle add(const std::string& kind,
                    const object_params& params) override {
    return h_.add(kind, params);
  }
  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params) override {
    return h_.add_as(id, kind, params);
  }
  void script(int pid, std::vector<hist::op_desc> ops) override {
    check_pid(pid, pol_.nprocs);
    // One program per pid, extended in place: the runtime's durable program
    // counter (done_seq) resumes after the already-executed prefix, so a
    // second script()+run() round executes exactly the newly appended ops.
    h_.extend_script(pid, ops);
  }
  sim::run_report run() override { return h_.run(); }

  void reseed_crashes(std::uint64_t seed) override { h_.reseed_crashes(seed); }

  void migrate(std::uint32_t, int) override {
    no_migration(exec_backend::single);
  }
  int rebalance(const placement_policy&) override {
    no_migration(exec_backend::single);
  }

  std::vector<hist::event> events_since(
      std::vector<std::size_t>& cursor) const override {
    return one_log_since(h_.log(), cursor);
  }
  hist::check_result check(const hist::check_options& opt) const override {
    return h_.check_per_object(opt);
  }

 private:
  exec_policy pol_;
  harness h_;
};

// ---------------------------------------------------------------------------
// sharded — K one-world harnesses with placement-policy routing and live
// object migration between runs.

/// Driver lanes for the sharded backend: how many shards one run() drives at
/// once on the process-wide util::task_pool::shared() pool (the submitting
/// thread is one of the lanes). An explicit request
/// (builder().pool_threads(n) > 0) wins over auto = hardware cores. The
/// result is capped at `shards` (extra lanes would idle) and at
/// task_pool::k_max_workers, and collapses to 0 (inline mode) when it is not
/// at least 2 — one lane would serialize the batch anyway.
int shard_pool_workers(int shards, int requested) {
  int n = requested;
  if (n <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;  // unknown → assume a lone core
    n = static_cast<int>(hw);
  }
  n = std::min({n, shards, util::task_pool::k_max_workers});
  return n >= 2 ? n : 0;
}

class sharded_executor final : public executor {
 public:
  explicit sharded_executor(const exec_policy& p)
      : pol_(p), placement_(p.placement),
        lanes_(shard_pool_workers(p.shards, p.pool_threads)) {
    if (lanes_ > 0) util::task_pool::shared().ensure_workers(lanes_);
    shards_.reserve(static_cast<std::size_t>(p.shards));
    for (int k = 0; k < p.shards; ++k) {
      shards_.push_back(std::make_unique<harness>(p));
    }
    has_ops_.assign(shards_.size(),
                    std::vector<bool>(static_cast<std::size_t>(p.nprocs)));
  }

  exec_backend backend() const noexcept override {
    return exec_backend::sharded;
  }
  int nprocs() const noexcept override { return pol_.nprocs; }
  int shards() const noexcept override {
    return static_cast<int>(shards_.size());
  }
  int shard_of(std::uint32_t object_id) const noexcept override {
    auto it = placed_.find(object_id);
    if (it != placed_.end()) return it->second.shard;
    return placement_.shard_of(object_id, placed_.size(),
                               static_cast<int>(shards_.size()));
  }
  const placement_policy& placement() const noexcept override {
    return placement_;
  }
  int pool_workers() const noexcept override { return lanes_; }
  placement_policy current_assignment() const override {
    std::map<std::uint32_t, int> pins;
    for (const auto& [id, rec] : placed_) pins.emplace(id, rec.shard);
    return pinned_placement(std::move(pins));
  }

  object_handle add(const std::string& kind,
                    const object_params& params) override {
    return add_as(next_id_, kind, params);
  }

  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params) override {
    // The executor-level duplicate check: under non-modulo placement the
    // same id could otherwise land on two different shards (the declaration
    // index differs) and dodge the per-runtime check.
    if (placed_.count(id) != 0) {
      throw std::invalid_argument("executor: duplicate object id " +
                                  std::to_string(id));
    }
    const std::size_t decl_index = placed_.size();
    const int shard = placement_.shard_of(id, decl_index,
                                          static_cast<int>(shards_.size()));
    harness& home = *shards_[static_cast<std::size_t>(shard)];
    object_handle handle = home.add_as(id, kind, params);
    placed_.emplace(id, placed_object{kind, params, shard, decl_index,
                                      home.log().size(), {}});
    next_id_ = std::max(next_id_, id + 1);
    return handle;
  }

  void script(int pid, std::vector<hist::op_desc> ops) override {
    check_pid(pid, pol_.nprocs);
    std::vector<hist::op_desc>& pend = pending_[pid];
    pend.insert(pend.end(), ops.begin(), ops.end());
    scripted_pids_.insert(pid);
  }

  sim::run_report run() override {
    // Split the newly scheduled ops by the *current* placement, preserving
    // per-shard program order, and append them to each world's program (the
    // per-world durable program counters resume after the already-executed
    // prefix). A pid with no ops on a shard gets no client task there.
    std::vector<std::vector<hist::op_desc>> split(shards_.size());
    for (auto& [pid, ops] : pending_) {
      for (const hist::op_desc& d : ops) {
        split[static_cast<std::size_t>(shard_of(d.object))].push_back(d);
      }
      ops.clear();
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        if (split[k].empty()) continue;
        shards_[k]->extend_script(pid, split[k]);
        has_ops_[k][static_cast<std::size_t>(pid)] = true;
        split[k].clear();
      }
    }
    // A pid whose whole program is empty still gets an (empty) client task,
    // as the single backend submits one: on every shard that hosts a
    // scripted op, or on shard 0 when none does. Without it a world's task
    // set differs from the single world's, its scheduler draws differently,
    // and single-vs-sharded equivalence breaks on shrinker-produced
    // scenarios with emptied scripts.
    std::vector<bool> hosts_ops(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      hosts_ops[k] = std::find(has_ops_[k].begin(), has_ops_[k].end(),
                               true) != has_ops_[k].end();
    }
    for (int pid : scripted_pids_) {
      const auto p = static_cast<std::size_t>(pid);
      if (std::any_of(has_ops_.begin(), has_ops_.end(),
                      [p](const std::vector<bool>& f) { return f[p]; })) {
        continue;
      }
      bool hosted = false;
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        if (!hosts_ops[k]) continue;
        shards_[k]->extend_script(pid, {});
        hosted = true;
      }
      if (!hosted) shards_[0]->extend_script(pid, {});
    }

    // Worlds are self-contained (own processes, own NVM domain, thread-local
    // access hooks), so shards run as one batch on the shared driver pool:
    // up to lanes_ lanes, each pulling shard indices from one counter. Each
    // shard stays internally deterministic, which is all replay
    // reproducibility needs. With no lanes (a single-core host, or
    // pool_threads(1)) the shards run inline, in order — same results, no
    // thread traffic.
    std::vector<sim::run_report> reports(shards_.size());
    std::vector<std::exception_ptr> errors(shards_.size());
    std::atomic<std::size_t> next{0};
    auto drive = [&] {
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= shards_.size()) return;
        try {
          reports[k] = shards_[k]->run();
        } catch (...) {
          errors[k] = std::current_exception();
        }
      }
    };
    if (lanes_ == 0) {
      drive();
    } else {
      std::vector<std::function<void()>> jobs(
          static_cast<std::size_t>(lanes_), drive);
      util::task_pool::shared().run_batch(jobs);
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    // Remember where each shard's log stood when this run finished: runs are
    // real-time ordered (run N completes before N+1 starts), so the merged
    // log orders by (run, shard-local index, shard) — without the run
    // coordinate, a later run's events on a low shard would merge before an
    // earlier run's events on a high one.
    std::vector<std::size_t> mark(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      mark[k] = shards_[k]->log().size();
    }
    round_marks_.push_back(std::move(mark));

    sim::run_report total;
    for (const sim::run_report& r : reports) {
      total.steps += r.steps;
      total.crashes += r.crashes;
      total.hit_step_limit = total.hit_step_limit || r.hit_step_limit;
      if (total.limit_note.empty()) total.limit_note = r.limit_note;
      total.lost_persistence = total.lost_persistence || r.lost_persistence;
      total.nvm_cells += r.nvm_cells;
      total.nvm_bytes += r.nvm_bytes;
      total.drain_steps += r.drain_steps;
      total.max_pending_stores =
          std::max(total.max_pending_stores, r.max_pending_stores);
    }
    return total;
  }

  void reseed_crashes(std::uint64_t seed) override {
    // Golden-ratio odd multiplier per shard: identical seeds would crash
    // every shard at the same draw positions.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      shards_[k]->reseed_crashes(seed ^
                                 (0x9E3779B97F4A7C15ULL * (k + 1)));
    }
  }

  void migrate(std::uint32_t object_id, int shard) override {
    auto it = placed_.find(object_id);
    if (it == placed_.end()) {
      throw std::invalid_argument("executor: cannot migrate unknown object " +
                                  std::to_string(object_id));
    }
    if (shard < 0 || shard >= static_cast<int>(shards_.size())) {
      throw std::invalid_argument(
          "executor: cannot migrate object " + std::to_string(object_id) +
          " to shard " + std::to_string(shard) + " — this executor has " +
          std::to_string(shards_.size()) + " shard(s)");
    }
    placed_object& rec = it->second;
    if (shard == rec.shard) return;  // already home

    // The transplant proper: NVM image out of the source world, fresh
    // same-layout object in the target world, image back in. The history
    // stays where it was written: the move records the stay it ends, and
    // check() projects the object's stays in order, so a move costs the
    // same however long the source log has grown.
    harness& src = *shards_[static_cast<std::size_t>(rec.shard)];
    const std::size_t left = src.log().size();
    nvm::pmem_image image = src.extract_object(object_id);
    harness& dst = *shards_[static_cast<std::size_t>(shard)];
    dst.adopt_object(object_id, rec.kind, rec.params, image);
    rec.past.push_back({rec.shard, rec.arrival, left});
    rec.shard = shard;
    rec.arrival = dst.log().size();
  }

  int rebalance(const placement_policy& policy) override {
    policy.validate(static_cast<int>(shards_.size()));
    // Plan first, move second: if any mover is blocked (an announced,
    // unrecovered op), nothing moves — a mid-loop throw must not leave the
    // fleet torn between two policies.
    std::vector<std::pair<std::uint32_t, int>> moves;
    for (auto& [id, rec] : placed_) {
      const int target = policy.shard_of(id, rec.decl_index,
                                         static_cast<int>(shards_.size()));
      if (target == rec.shard) continue;
      const std::string why =
          shards_[static_cast<std::size_t>(rec.shard)]->migration_blocker(id);
      if (!why.empty()) {
        throw std::invalid_argument("executor: rebalance blocked: " + why);
      }
      moves.emplace_back(id, target);
    }
    for (const auto& [id, target] : moves) migrate(id, target);
    placement_ = policy;
    return static_cast<int>(moves.size());
  }

  std::vector<hist::event> events_since(
      std::vector<std::size_t>& cursor) const override {
    const std::size_t n = shards_.size();
    std::vector<std::size_t> ends(n);
    for (std::size_t k = 0; k < n; ++k) ends[k] = shards_[k]->log().size();
    claim_cursor(cursor, ends);
    // Only the events past the cursor are copied out of the shard logs.
    std::vector<std::vector<hist::event>> fresh(n);
    std::size_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      fresh[k] = shards_[k]->log().snapshot(cursor[k]);
      total += fresh[k].size();
    }

    // Stable global order: run, then shard-local index, then shard id. Each
    // shard's log stays a subsequence of the merge, and a later run's
    // events never precede an earlier run's (runs are real-time ordered).
    // Runs that lie wholly behind the cursor are skipped; within a run the
    // rows count from the run's start, so a chunk lists its events exactly
    // where the whole merge would.
    const auto behind = [&](const std::vector<std::size_t>& upto) {
      for (std::size_t k = 0; k < n; ++k) {
        if (upto[k] > cursor[k]) return false;
      }
      return true;
    };
    const auto first =
        std::partition_point(round_marks_.begin(), round_marks_.end(), behind);
    std::vector<std::size_t> from =
        first == round_marks_.begin() ? std::vector<std::size_t>(n, 0)
                                      : *std::prev(first);
    std::vector<hist::event> out;
    out.reserve(total);
    const auto merge_run = [&](const std::vector<std::size_t>& upto) {
      for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t idx = from[k] + i;
          if (idx < std::min(upto[k], ends[k])) {
            any = true;
            if (idx >= cursor[k]) out.push_back(fresh[k][idx - cursor[k]]);
          }
        }
        if (!any) break;
      }
      for (std::size_t k = 0; k < n; ++k) {
        from[k] = std::max(from[k], std::min(upto[k], ends[k]));
      }
    };
    for (auto it = first; it != round_marks_.end(); ++it) merge_run(*it);
    merge_run(ends);  // anything past the last run mark
    cursor = std::move(ends);
    return out;
  }

  hist::check_result check(const hist::check_options& opt) const override {
    // Crash events are per shard (each shard is its own failure domain), and
    // a migrated object's history spans shards. So assemble each object's
    // stream from its stays, in order: on each shard it lived on, its op
    // events and that world's crashes while it lived there, the last stay
    // open-ended on its current home. An object that never moved is one open
    // stay from its arrival. Every shard log is walked once for all the
    // stays it hosted, and all objects go to the hist driver in one batch,
    // so the jobs fan-out and worst-offender selection apply across shards.
    std::vector<hist::object_stream> streams;
    // Per object, one event list per stay in order, the current one last.
    std::vector<std::vector<std::vector<hist::event>>> parts(placed_.size());
    std::vector<std::vector<hist::stay>> stays(shards_.size());
    streams.reserve(placed_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      for (const auto& [id, sp] : shards_[k]->object_specs()) {
        const placed_object& rec = placed_.at(id);
        streams.push_back({id, sp, {}});
        // Sized before the stays point into it.
        std::vector<std::vector<hist::event>>& own = parts[streams.size() - 1];
        own.resize(rec.past.size() + 1);
        for (std::size_t j = 0; j < rec.past.size(); ++j) {
          const past_stay& st = rec.past[j];
          stays[static_cast<std::size_t>(st.shard)].push_back(
              {id, st.from, st.to, &own[j]});
        }
        stays[k].push_back({id, rec.arrival, hist::k_open, &own.back()});
      }
    }
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      hist::project(shards_[k]->log(), std::move(stays[k]));
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      streams[i].events = join_stays(parts[i]);
    }
    hist::check_result res = hist::check_object_streams(streams, opt);
    if (!res.ok) {
      const placed_object& rec =
          placed_.at(static_cast<std::uint32_t>(res.failed_object));
      res.message = "shard " + std::to_string(rec.shard) +
                    (rec.past.empty() ? "" : " (object migrated)") + ": " +
                    res.message;
    }
    return res;
  }

 private:
  /// Concatenate an object's stays into one stream. Each stay's op events
  /// are shifted past the largest client_seq the stream already holds for
  /// the same pid. Each world numbers a process's ops from 1, so without
  /// the shift a migrated object's stream would repeat (pid, client_seq)
  /// pairs across stays and the checker's duplicate-completion suppression
  /// (keyed on exactly that pair) could swallow a real completion. All
  /// events of one stay shift uniformly, so invoke/response/recover stay
  /// matched.
  std::vector<hist::event> join_stays(
      std::vector<std::vector<hist::event>>& stays) const {
    std::vector<hist::event> out = std::move(stays.front());
    if (stays.size() == 1) return out;
    std::vector<std::uint64_t> top(static_cast<std::size_t>(pol_.nprocs), 0);
    const auto note = [&](const hist::event& e) {
      std::uint64_t& t = top[static_cast<std::size_t>(e.pid)];
      t = std::max(t, e.desc.client_seq);
    };
    for (const hist::event& e : out) {
      if (e.kind != hist::event_kind::crash) note(e);
    }
    for (std::size_t j = 1; j < stays.size(); ++j) {
      const std::vector<std::uint64_t> base = top;
      for (hist::event e : stays[j]) {
        if (e.kind != hist::event_kind::crash) {
          e.desc.client_seq += base[static_cast<std::size_t>(e.pid)];
          note(e);
        }
        out.push_back(e);
      }
    }
    return out;
  }

  /// A finished stay: the object lived on `shard` while its log ran over
  /// [from, to).
  struct past_stay {
    int shard = 0;
    std::size_t from = 0;
    std::size_t to = 0;
  };

  /// Everything the executor tracks per hosted object: how to rebuild it
  /// (kind/params), where it lives, its declaration index (range placement
  /// and rebalancing key off it), and the stays migrate() ended.
  struct placed_object {
    std::string kind;
    object_params params;
    int shard = 0;
    std::size_t decl_index = 0;
    std::size_t arrival = 0;  // current shard's log length at arrival
    std::vector<past_stay> past;  // earlier homes, oldest first
  };

  exec_policy pol_;
  placement_policy placement_;
  std::vector<std::unique_ptr<harness>> shards_;
  std::map<std::uint32_t, placed_object> placed_;
  /// Ops scheduled since the last run(), per pid, in script order.
  std::map<int, std::vector<hist::op_desc>> pending_;
  /// Per shard, per pid: has this world's program for the pid any op?
  std::vector<std::vector<bool>> has_ops_;
  std::set<int> scripted_pids_;
  /// Per-shard log lengths at the end of each run() — the run coordinate of
  /// the merged-log order.
  std::vector<std::vector<std::size_t>> round_marks_;
  std::uint32_t next_id_ = 0;
  /// Shards driven at once by run() (0 = inline); see shard_pool_workers().
  int lanes_;
};

// ---------------------------------------------------------------------------
// threads — free-running real threads over a bare domain and board, with
// post-hoc per-object checking: a lincheck-style stress driver.

class threads_executor final : public executor {
 public:
  explicit threads_executor(const exec_policy& p)
      : pol_(p), board_(p.nprocs, dom_) {}

  exec_backend backend() const noexcept override {
    return exec_backend::threads;
  }
  int nprocs() const noexcept override { return pol_.nprocs; }
  int shards() const noexcept override { return 1; }
  int shard_of(std::uint32_t) const noexcept override { return 0; }
  const placement_policy& placement() const noexcept override {
    return pol_.placement;
  }
  int pool_workers() const noexcept override { return 0; }
  placement_policy current_assignment() const override {
    return pinned_placement({});
  }

  object_handle add(const std::string& kind,
                    const object_params& params) override {
    return add_as(next_id_, kind, params);
  }

  object_handle add_as(std::uint32_t id, const std::string& kind,
                       const object_params& params) override {
    if (by_id_.count(id) != 0) {
      throw std::invalid_argument("executor: duplicate object id " +
                                  std::to_string(id));
    }
    const kind_info& info = object_registry::global().at(kind);
    object_env env{pol_.nprocs, board_, dom_};
    created_object created = info.make(env, params);
    core::detectable_object& primary = created.primary();
    for (auto& obj : created.owned) objects_.push_back(std::move(obj));
    next_id_ = std::max(next_id_, id + 1);
    by_id_.emplace(id, &primary);
    specs_.emplace_back(id, info.make_spec(params));
    return object_handle(id, info.family, &primary, kind);
  }

  void script(int pid, std::vector<hist::op_desc> ops) override {
    check_pid(pid, pol_.nprocs);
    std::vector<hist::op_desc>& prog = scripts_[pid];
    prog.insert(prog.end(), ops.begin(), ops.end());
  }

  void migrate(std::uint32_t, int) override {
    no_migration(exec_backend::threads);
  }
  int rebalance(const placement_policy&) override {
    no_migration(exec_backend::threads);
  }

  sim::run_report run() override {
    // Each run executes the ops appended since the previous one (`done_`
    // tracks each pid's executed prefix), with client sequence numbers
    // continuing across runs.
    std::vector<std::exception_ptr> errors(scripts_.size());
    std::vector<std::thread> workers;
    workers.reserve(scripts_.size());
    std::uint64_t total_ops = 0;
    std::size_t w = 0;
    for (const auto& [pid, ops] : scripts_) {
      const std::size_t start = done_[pid];
      std::vector<hist::op_desc> batch(ops.begin() + static_cast<long>(start),
                                       ops.end());
      done_[pid] = ops.size();
      total_ops += batch.size();
      workers.emplace_back([this, pid = pid, batch = std::move(batch), start,
                            ep = &errors[w]] {
        try {
          client_thread(pid, batch, start);
        } catch (...) {
          *ep = std::current_exception();
        }
      });
      ++w;
    }
    for (std::thread& t : workers) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    sim::run_report report;
    report.steps = total_ops;  // no simulator steps; report op count instead
    report.nvm_cells = dom_.cells_attached();
    report.nvm_bytes = dom_.bytes_attached();
    return report;
  }

  void reseed_crashes(std::uint64_t) override {
    // No crash plan to reseed: build() rejects them on this backend.
  }

  std::vector<hist::event> events_since(
      std::vector<std::size_t>& cursor) const override {
    return one_log_since(log_, cursor);
  }

  hist::check_result check(const hist::check_options& opt) const override {
    hist::object_spec_list specs;
    for (const auto& [id, proto] : specs_) specs.emplace_back(id, proto.get());
    return hist::check_durable_linearizability_per_object(log_.snapshot(),
                                                          specs, opt);
  }

 private:
  // The caller-side protocol of §2, same as core::runtime::announce_and_invoke
  // but free-running: log_mu_ serializes appends, and since an op's
  // invoke event precedes its first step and its response event follows its
  // return, the recorded intervals contain the real ones — precedence derived
  // from the log is sound for the linearizability check.
  void client_thread(int pid, const std::vector<hist::op_desc>& ops,
                     std::uint64_t start_seq) {
    core::ann_fields& ann = board_.of(pid);
    std::uint64_t seq = start_seq;
    for (hist::op_desc desc : ops) {
      desc.client_seq = ++seq;
      core::detectable_object& obj = *by_id_.at(desc.object);
      ann.valid.store(0);
      ann.op.store(desc);
      if (obj.wants_aux_reset()) {
        ann.resp.store(hist::k_bottom);
        ann.cp.store(0);
      }
      ann.valid.store(1);
      log_event(hist::event_kind::invoke, pid, desc);
      value_t v = obj.invoke(pid, desc);
      log_event(hist::event_kind::response, pid, desc, v);
    }
  }

  void log_event(hist::event_kind kind, int pid, const hist::op_desc& desc,
                 value_t value = hist::k_bottom) {
    hist::event e;
    e.kind = kind;
    e.pid = pid;
    e.desc = desc;
    e.value = value;
    std::scoped_lock lock(log_mu_);
    log_.append(e);
  }

  exec_policy pol_;
  nvm::pmem_domain dom_;
  core::announcement_board board_;
  /// Client threads append at once; hist::log takes no lock of its own.
  /// Readers come after run() joins the threads, so they need no lock.
  std::mutex log_mu_;
  hist::log log_;
  std::vector<std::unique_ptr<core::detectable_object>> objects_;
  std::map<std::uint32_t, core::detectable_object*> by_id_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<hist::spec>>> specs_;
  std::map<int, std::vector<hist::op_desc>> scripts_;
  std::map<int, std::size_t> done_;  // executed prefix per pid
  std::uint32_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<executor> make_executor(const exec_policy& p) {
  if (p.nprocs < 1) {
    throw std::invalid_argument("make_executor: nprocs must be >= 1");
  }
  if (p.shards < 1) {
    throw std::invalid_argument("make_executor: shards must be >= 1 (got " +
                                std::to_string(p.shards) + ")");
  }
  if (p.backend != exec_backend::sharded && p.shards > 1) {
    throw std::invalid_argument(
        std::string("make_executor: .shards(") + std::to_string(p.shards) +
        ") needs exec_backend::sharded — the " + backend_name(p.backend) +
        " backend runs exactly one world");
  }
  if (p.pool_threads < 0) {
    throw std::invalid_argument("make_executor: pool_threads must be >= 0 (0 "
                                "= auto-size to hardware)");
  }
  if (p.backend != exec_backend::sharded && p.pool_threads > 0) {
    throw std::invalid_argument(
        std::string("make_executor: .pool_threads(") +
        std::to_string(p.pool_threads) + ") needs exec_backend::sharded — "
        "only sharded runs drive worlds on a driver pool");
  }
  if (p.backend == exec_backend::sharded) {
    p.placement.validate(p.shards);
  }
  switch (p.backend) {
    case exec_backend::single:
      return std::make_unique<single_executor>(p);
    case exec_backend::sharded:
      return std::make_unique<sharded_executor>(p);
    case exec_backend::threads:
      if (!p.crash_steps.empty() || p.crash_random) {
        throw std::invalid_argument(
            "make_executor: the threads backend cannot deliver simulated "
            "crashes");
      }
      if (p.shared_cache) {
        throw std::invalid_argument(
            "make_executor: the threads backend has no shared-cache "
            "emulation");
      }
      if (p.sched.strat != sched::strategy::uniform_random ||
          !p.sched.pct_points.empty()) {
        throw std::invalid_argument(
            "make_executor: the threads backend runs free — schedule "
            "strategies need the simulated world");
      }
      if (p.persist != nvm::persist_model::strict) {
        throw std::invalid_argument(
            "make_executor: the threads backend has no buffered-persistency "
            "emulation");
      }
      if (p.wcfg.visibility != wmm::visibility_model::sc) {
        throw std::invalid_argument(
            "make_executor: the threads backend runs on real cores — "
            "store-buffer visibility models need the simulated world");
      }
      return std::make_unique<threads_executor>(p);
  }
  throw std::logic_error("make_executor: unhandled backend");
}

}  // namespace detect::api
