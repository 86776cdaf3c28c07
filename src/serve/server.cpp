#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace detect::serve {

const char* submit_status_name(submit_status s) noexcept {
  switch (s) {
    case submit_status::admitted: return "admitted";
    case submit_status::overloaded: return "overloaded";
    case submit_status::shutting_down: return "shutting_down";
    case submit_status::invalid_op: return "invalid_op";
  }
  return "?";
}

// ---- session handle ---------------------------------------------------------

submit_status session::submit(const hist::op_desc& op,
                              completion_fn on_complete) {
  if (srv_ == nullptr) return submit_status::invalid_op;
  return srv_->submit(id_, op, std::move(on_complete));
}

std::uint64_t session::submitted() const {
  return srv_ == nullptr ? 0 : srv_->session_snapshot(id_).submitted;
}
std::uint64_t session::admitted() const {
  return srv_ == nullptr ? 0 : srv_->session_snapshot(id_).admitted;
}
std::uint64_t session::rejected() const {
  return srv_ == nullptr ? 0 : srv_->session_snapshot(id_).rejected;
}
std::uint64_t session::completed() const {
  return srv_ == nullptr ? 0 : srv_->session_snapshot(id_).completed;
}

// ---- server -----------------------------------------------------------------

server::server(serve_config cfg)
    : cfg_(std::move(cfg)), reb_(cfg_.rebalance, cfg_.exec.shards) {
  cfg_.exec.backend = api::exec_backend::sharded;
  // retry is load-bearing: skip would abandon crashed ops, and an admitted
  // op that never completes breaks the serving contract.
  cfg_.exec.fail = core::runtime::fail_policy::retry;
  ex_ = api::make_executor(cfg_.exec);

  queues_.resize(static_cast<std::size_t>(cfg_.exec.shards));
  lanes_.resize(static_cast<std::size_t>(cfg_.exec.shards) *
                static_cast<std::size_t>(cfg_.exec.nprocs));
  shard_stats_.resize(static_cast<std::size_t>(cfg_.exec.shards));
  start_ = std::chrono::steady_clock::now();

  if (cfg_.threaded) {
    dispatcher_ = std::thread([this] { dispatcher_main(); });
  }
}

server::~server() {
  try {
    shutdown();
  } catch (...) {
    // A step-limit abort during destruction has nowhere to propagate; the
    // dispatcher is joined either way.
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

session server::open_session() {
  std::lock_guard lk(mu_);
  const std::uint64_t id = next_session_++;
  const int pid = static_cast<int>(id % static_cast<std::uint64_t>(procs()));
  session_record rec;
  rec.id = id;
  rec.pid = pid;
  rec.tokens = cfg_.session_tokens;
  sessions_.push_back(rec);
  return session(this, id, pid);
}

api::object_handle server::add(const std::string& kind,
                               const api::object_params& params) {
  std::lock_guard exec_lk(exec_mu_);
  api::object_handle h = ex_->add(kind, params);
  std::lock_guard lk(mu_);
  if (h.id() >= homes_.size()) homes_.resize(h.id() + 1, -1);
  homes_[h.id()] = ex_->shard_of(h.id());
  return h;
}

server::session_record server::session_snapshot(std::uint64_t id) const {
  std::lock_guard lk(mu_);
  return id < sessions_.size() ? sessions_[id] : session_record{};
}

std::uint64_t server::now_tick_locked() const {
  if (!cfg_.threaded) return rounds_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

submit_status server::submit(std::uint64_t session_id, const hist::op_desc& op,
                             completion_fn cb) {
  std::unique_lock lk(mu_);
  if (session_id >= sessions_.size()) {
    ++submitted_;
    ++rejected_invalid_;
    return submit_status::invalid_op;
  }
  session_record& rec = sessions_[session_id];
  ++rec.submitted;
  ++submitted_;

  if (stopping_) {
    ++rec.rejected;
    ++rejected_shutdown_;
    return submit_status::shutting_down;
  }
  if (op.object >= homes_.size() || homes_[op.object] < 0) {
    ++rec.rejected;
    ++rejected_invalid_;
    return submit_status::invalid_op;
  }
  const std::size_t k = static_cast<std::size_t>(homes_[op.object]);
  if (queues_[k].size() >= cfg_.queue_high_water) {
    ++rec.rejected;
    ++rejected_queue_;
    ++shard_stats_[k].rejected_queue;
    return submit_status::overloaded;
  }
  if (pending_total_ + inflight_count_ >= cfg_.global_inflight) {
    ++rec.rejected;
    ++rejected_global_;
    return submit_status::overloaded;
  }
  if (rec.tokens < 1.0) {
    ++rec.rejected;
    ++rejected_tokens_;
    return submit_status::overloaded;
  }

  rec.tokens -= 1.0;
  ++rec.admitted;
  ++admitted_;
  pending_op p;
  p.ticket = ++next_ticket_;
  p.session = session_id;
  p.pid = rec.pid;
  p.op = op;
  p.cb = std::move(cb);
  p.submit_tick = now_tick_locked();
  queues_[k].push_back(std::move(p));
  ++pending_total_;
  shard_stats_[k].max_queue_depth =
      std::max<std::uint64_t>(shard_stats_[k].max_queue_depth, queues_[k].size());

  const bool notify = cfg_.threaded;
  lk.unlock();
  if (notify) cv_work_.notify_one();
  return submit_status::admitted;
}

bool server::batch_ready_locked() const {
  for (const auto& q : queues_) {
    if (q.size() >= cfg_.batch_max_ops) return true;
  }
  return false;
}

bool server::run_round() {
  std::unique_lock exec_lk(exec_mu_);

  // Phase 1 (mu_): pop this round's batches onto their (shard, pid) lanes
  // and build the per-process scripts. Lane slots mirror the shard worlds'
  // client_seq numbering: each world numbers a pid's ops 1.. in script
  // order, and the executor routes a pid's ops to shard scripts preserving
  // the order scripted here.
  std::vector<std::vector<hist::op_desc>> scripts(
      static_cast<std::size_t>(procs()));
  std::vector<std::uint64_t> round_ops;
  std::uint64_t round_no = 0;
  {
    std::lock_guard lk(mu_);
    round_no = rounds_;
    round_ops.assign(homes_.size(), 0);
    bool any = false;
    for (std::size_t k = 0; k < queues_.size(); ++k) {
      std::uint64_t took = 0;
      while (took < cfg_.batch_max_ops && !queues_[k].empty()) {
        pending_op p = std::move(queues_[k].front());
        queues_[k].pop_front();
        --pending_total_;
        ++took;

        inflight_rec rec;
        rec.ticket = p.ticket;
        rec.session = p.session;
        rec.object = p.op.object;
        rec.cb = std::move(p.cb);
        rec.submit_tick = p.submit_tick;
        lane_of(static_cast<int>(k), p.pid).slots.push_back(std::move(rec));
        ++inflight_count_;
        scripts[static_cast<std::size_t>(p.pid)].push_back(p.op);
        ++round_ops[p.op.object];
      }
      if (took > 0) {
        any = true;
        ++batches_;
        ++shard_stats_[k].batches;
        shard_stats_[k].served += took;
        batch_ops_ += took;
        max_batch_ = std::max(max_batch_, took);
      }
    }
    if (!any) return false;
  }

  // Phase 2 (executor, no mu_ — submits keep landing in threaded mode).
  // Reseeding per round varies the crash points deterministically; the
  // executor would otherwise rebuild the same plan (same draw positions)
  // every round.
  if (cfg_.exec.crash_random) {
    ex_->reseed_crashes(std::get<0>(*cfg_.exec.crash_random) +
                        0x9E3779B97F4A7C15ULL * (round_no + 1));
  }
  for (std::size_t pid = 0; pid < scripts.size(); ++pid) {
    if (scripts[pid].empty()) continue;
    ex_->script(static_cast<int>(pid), std::move(scripts[pid]));
  }
  const sim::run_report rep = ex_->run();
  if (rep.hit_step_limit) {
    // Incomplete scripts mean lost completions; that is a configuration
    // error (max_steps too small for the service lifetime), not a state
    // this server can continue from.
    throw std::runtime_error("serve: batch round hit the step limit (" +
                             rep.limit_note + ")");
  }

  // Phase 3 (mu_): match completions, refill buckets, rebalance.
  std::vector<std::pair<completion, completion_fn>> done;
  {
    std::lock_guard lk(mu_);
    ++rounds_;  // completions of this round land at the new logical tick
    steps_ = rep.steps;
    crashes_ += rep.crashes;
    nvm_cells_ = rep.nvm_cells;
    nvm_bytes_ = rep.nvm_bytes;

    for (const hist::event& e : ex_->events_since(event_cursor_)) {
      const bool completes =
          e.kind == hist::event_kind::response ||
          (e.kind == hist::event_kind::recover_result &&
           e.verdict == hist::recovery_verdict::linearized);
      if (!completes) continue;
      if (e.desc.object >= homes_.size() || homes_[e.desc.object] < 0) {
        continue;
      }
      lane& ln = lane_of(homes_[e.desc.object], e.pid);
      // A seq below the lane's front, or a slot already done, is the dedupe
      // path: a response persisted, the crash landed before the client's
      // done_seq store, and recovery re-reported the op as linearized — the
      // first event already completed the ticket.
      if (e.desc.client_seq < ln.base ||
          e.desc.client_seq - ln.base >= ln.slots.size()) {
        continue;
      }
      inflight_rec& rec = ln.slots[e.desc.client_seq - ln.base];
      if (rec.done) continue;

      completion c;
      c.ticket = rec.ticket;
      c.session = rec.session;
      c.object = rec.object;
      c.value = e.value;
      c.latency = now_tick_locked() - rec.submit_tick;
      lat_.record(c.latency);
      ++completed_;
      ++sessions_[rec.session].completed;
      done.emplace_back(std::move(c), std::move(rec.cb));
      rec.done = true;
      --inflight_count_;
      while (!ln.slots.empty() && ln.slots.front().done) {
        ln.slots.pop_front();
        ++ln.base;
      }
    }

    for (session_record& rec : sessions_) {
      rec.tokens = std::min(cfg_.session_tokens, rec.tokens + cfg_.session_refill);
    }

    // Rebalance at the quiescent point. Objects still queued are frozen:
    // their queue slot encodes their home shard, which must hold until they
    // are scripted.
    reb_.record_round(round_ops);
    std::vector<bool> frozen(homes_.size());
    for (const auto& q : queues_) {
      for (const pending_op& p : q) frozen[p.op.object] = true;
    }
    const std::vector<planned_move> plan = reb_.maybe_plan(homes_, frozen);
    for (const planned_move& m : plan) {
      try {
        ex_->migrate(m.object, m.to);
      } catch (const std::invalid_argument&) {
        continue;  // e.g. object became unmovable; skip, never crash serving
      }
      homes_[m.object] = m.to;
      moves_.push_back({rounds_, m.object, m.from, m.to, reb_.last_ratio()});
    }
  }

  // Phase 4: callbacks outside both locks — they may submit follow-up ops
  // or take snapshots without deadlocking.
  exec_lk.unlock();
  for (auto& [c, cb] : done) {
    if (cb) cb(c);
  }
  cv_drained_.notify_all();
  return true;
}

bool server::pump() {
  if (cfg_.threaded) {
    throw std::logic_error(
        "serve: pump() is deterministic-mode only; the dispatcher thread "
        "owns the crank in threaded mode");
  }
  return run_round();
}

void server::drain() {
  if (!cfg_.threaded) {
    while (run_round()) {
    }
    return;
  }
  cv_work_.notify_all();
  std::unique_lock lk(mu_);
  cv_drained_.wait(lk,
                   [&] { return pending_total_ == 0 && inflight_count_ == 0; });
}

void server::shutdown() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  if (cfg_.threaded) {
    if (dispatcher_.joinable()) dispatcher_.join();
  } else {
    while (run_round()) {
    }
  }
}

void server::dispatcher_main() {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stopping_ || pending_total_ > 0; });
    if (pending_total_ == 0) {
      if (stopping_) return;
      continue;
    }
    if (!stopping_ && !batch_ready_locked()) {
      // Deadline trigger: give the batch a chance to fill, then go anyway.
      cv_work_.wait_for(lk, cfg_.batch_window,
                        [&] { return stopping_ || batch_ready_locked(); });
    }
    lk.unlock();
    run_round();
    lk.lock();
  }
}

stats server::snapshot() const {
  std::lock_guard lk(mu_);
  stats s;
  s.sessions_opened = next_session_;
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.completed = completed_;
  s.inflight = pending_total_ + inflight_count_;
  s.rejected_queue = rejected_queue_;
  s.rejected_session_tokens = rejected_tokens_;
  s.rejected_global = rejected_global_;
  s.rejected_shutdown = rejected_shutdown_;
  s.rejected_invalid = rejected_invalid_;
  s.rounds = rounds_;
  s.batches = batches_;
  s.max_batch_ops = max_batch_;
  s.mean_batch_ops =
      batches_ == 0 ? 0.0
                    : static_cast<double>(batch_ops_) /
                          static_cast<double>(batches_);
  s.steps = steps_;
  s.crashes = crashes_;
  s.nvm_cells = nvm_cells_;
  s.nvm_bytes = nvm_bytes_;
  s.load_ratio_window = reb_.last_ratio();
  s.moves = moves_;
  s.shards = shard_stats_;
  for (std::size_t k = 0; k < queues_.size(); ++k) {
    s.shards[k].queue_depth = queues_[k].size();
  }
  s.p50 = lat_.quantile(0.50);
  s.p99 = lat_.quantile(0.99);
  s.latency_unit = cfg_.threaded ? "us" : "rounds";
  return s;
}

hist::check_result server::check(const hist::check_options& opt) const {
  std::lock_guard exec_lk(exec_mu_);
  return ex_->check(opt);
}

api::placement_policy server::current_assignment() const {
  std::lock_guard exec_lk(exec_mu_);
  return ex_->current_assignment();
}

std::vector<hist::event> server::events() const {
  std::lock_guard exec_lk(exec_mu_);
  return ex_->events();
}

}  // namespace detect::serve
