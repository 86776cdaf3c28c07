#include "sim/world.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace detect::sim {

namespace {

void insert_sorted(std::vector<int>& v, int pid) {
  v.insert(std::lower_bound(v.begin(), v.end(), pid), pid);
}

void erase_sorted(std::vector<int>& v, int pid) {
  auto it = std::lower_bound(v.begin(), v.end(), pid);
  if (it != v.end() && *it == pid) v.erase(it);
}

}  // namespace

world::world(int nprocs, world_config cfg)
    : cfg_(std::move(cfg)), engine_(default_engine()) {
  if (nprocs <= 0) throw std::invalid_argument("world: nprocs must be >= 1");
  procs_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) procs_.push_back(make_strand(engine_));
  ready_.reserve(static_cast<std::size_t>(nprocs));
  if (cfg_.visibility != wmm::visibility_model::sc) {
    bufs_.resize(static_cast<std::size_t>(nprocs));
    drains_left_ = cfg_.drain_points;
  }
}

world::~world() = default;

void world::settle() {
  // Done strands are never in ready_; absorbing them only flips them idle
  // and surfaces any task exception (first one wins, as before).
  for (auto& s : procs_) {
    if (s->st() != strand::status::done) continue;
    if (std::exception_ptr e = s->reset_done()) std::rethrow_exception(e);
  }
}

void world::submit(int pid, std::function<void()> task) {
  settle();
  strand& s = *procs_.at(static_cast<std::size_t>(pid));
  if (s.st() != strand::status::idle) {
    throw std::logic_error("submit: process p" + std::to_string(pid) +
                           " already has a task");
  }
  s.start(std::move(task));
  if (s.st() == strand::status::at_yield) insert_sorted(ready_, pid);
  // A task that finished (or threw) before its first access stays `done`
  // until the next settle point — the same place the thread engine's
  // quiesce used to surface it.
}

std::vector<int> world::runnable() {
  settle();
  return ready_;
}

bool world::busy() {
  settle();
  return !ready_.empty();
}

strand& world::begin_step(int pid) {
  ++step_no_;
  running_ = pid;
  // Point the domain at the stepping process's store buffer for exactly the
  // duration of its access (relaxed visibility only; the strand handshake
  // serializes, so the thread engine sees the pointer too).
  if (!bufs_.empty()) {
    domain_.set_active_store_buffer(&bufs_[static_cast<std::size_t>(pid)]);
  }
  return *procs_[static_cast<std::size_t>(pid)];
}

void world::finish_step() {
  if (!bufs_.empty()) domain_.set_active_store_buffer(nullptr);
  strand& s = *procs_[static_cast<std::size_t>(running_)];
  if (s.st() == strand::status::done) {
    erase_sorted(ready_, running_);
    if (std::exception_ptr e = s.reset_done()) std::rethrow_exception(e);
  }
}

void world::step_ready(int pid) {
  begin_step(pid).step(nullptr);
  finish_step();
}

bool world::needs_drained_buffer(nvm::access a) noexcept {
  // Real-TSO fence semantics: atomic RMWs, persistency instructions, and
  // the runtime's control checkpoints (invoke/response logging) do not
  // execute past a non-empty store buffer. Private NVM stores (Ann_p and
  // friends) act as release fences too — recoverability bookkeeping must
  // never lead the data stores it describes. Only plain shared loads,
  // shared stores, and private loads may overtake the buffer.
  switch (a) {
    case nvm::access::shared_cas:
    case nvm::access::shared_exchange:
    case nvm::access::private_store:
    case nvm::access::flush:
    case nvm::access::fence:
    case nvm::access::control:
      return true;
    default:
      return false;
  }
}

std::size_t world::pending_stores() const noexcept {
  std::size_t total = 0;
  for (const wmm::store_buffer& b : bufs_) total += b.size();
  return total;
}

void world::drain_one(int pid, std::size_t slot) {
  ++step_no_;
  ++drain_steps_;
  bufs_[static_cast<std::size_t>(pid)].drain_slot(cfg_.visibility, slot);
}

void world::drain_fully(int pid) {
  if (bufs_.empty()) return;
  while (!bufs_[static_cast<std::size_t>(pid)].empty()) drain_one(pid, 0);
}

void world::step(int pid) {
  settle();
  if (pid < 0 || pid >= nprocs() ||
      procs_[static_cast<std::size_t>(pid)]->st() != strand::status::at_yield) {
    throw std::logic_error("step: process p" + std::to_string(pid) +
                           " is not runnable");
  }
  // Low-level single-step API: honor the fence rule inline (the run loop
  // instead withholds the fenced pid and lets the scheduler order drains).
  if (!bufs_.empty() &&
      needs_drained_buffer(procs_[static_cast<std::size_t>(pid)]->pending())) {
    drain_fully(pid);
  }
  step_ready(pid);
}

nvm::access world::pending_access(int pid) {
  settle();
  strand& s = *procs_.at(static_cast<std::size_t>(pid));
  if (s.st() != strand::status::at_yield) {
    throw std::logic_error("pending_access: process is not at a yield");
  }
  return s.pending();
}

bool world::last_task_interrupted(int pid) {
  return procs_.at(static_cast<std::size_t>(pid))->interrupted();
}

void world::crash() {
  settle();
  // Unwind every parked task. Delivery is sequential in pid order — the
  // order is unobservable (each unwind only destroys that task's volatile
  // frames), and determinism beats the old concurrent wakeup.
  for (int pid : ready_) procs_[static_cast<std::size_t>(pid)]->deliver_crash();
  ready_.clear();
  settle();
  // Store buffers are volatile: undrained stores never happened. Discard
  // them before the persistency crash rule runs (drain → persist order
  // means none of them can have touched the crash image).
  for (wmm::store_buffer& b : bufs_) b.discard();
  // All volatile frames are gone; now apply the memory model's crash rule,
  // then advance the system epoch durably (the hook is null on the driving
  // thread, so these are direct accesses).
  std::uint64_t e = epoch_.peek();
  domain_.crash_reset();
  if (domain_.last_crash_lost()) lost_persistence_ = true;
  epoch_.store(e + 1);
  epoch_.flush();
}

world::action world::decide() {
  const int n = nprocs();
  for (;;) {
    if (ready_.empty()) return {action::kind::idle};
    if (step_no_ >= cfg_.max_steps) return {action::kind::limit};
    // Scenario-scripted drain point: every buffer retires completely as one
    // step. Checked before the crash plan so a same-step crash sees the
    // drained (persistable) state.
    if (!bufs_.empty()) {
      bool fired = false;
      for (std::uint64_t& a : drains_left_) {
        if (a == step_no_) {
          a = static_cast<std::uint64_t>(-1);  // fire once
          fired = true;
          break;
        }
      }
      if (fired) {
        ++step_no_;
        ++drain_steps_;
        for (wmm::store_buffer& b : bufs_) b.drain_all();
        continue;
      }
    }
    if (crashes_ != nullptr && crashes_->should_crash(step_no_)) {
      return {action::kind::crash};
    }
    if (bufs_.empty()) {  // sc: the historical loop, byte-identical
      return {action::kind::step, sched_->pick(ready_, step_no_)};
    }
    // Relaxed visibility: the scheduler picks among real steps and drain
    // pseudo-pids `n*(1+slot)+pid`, one per drainable slot (tso: the FIFO
    // head; pso: each distinct buffered cell). A pid whose pending access
    // fences (needs_drained_buffer) is withheld until its buffer drains —
    // its drain slots keep the candidate set non-empty, so progress holds.
    cand_.clear();
    for (int pid : ready_) {
      if (bufs_[static_cast<std::size_t>(pid)].empty() ||
          !needs_drained_buffer(
              procs_[static_cast<std::size_t>(pid)]->pending())) {
        cand_.push_back(pid);
      }
    }
    for (std::size_t slot = 0;; ++slot) {
      bool any = false;
      for (int p = 0; p < n; ++p) {
        if (bufs_[static_cast<std::size_t>(p)].slots(cfg_.visibility) > slot) {
          cand_.push_back(n * static_cast<int>(1 + slot) + p);
          any = true;
        }
      }
      if (!any) break;
    }
    int pick = sched_->pick(cand_, step_no_);
    if (pick < n) return {action::kind::step, pick};
    drain_one(pick % n, static_cast<std::size_t>(pick / n) - 1);
  }
}

strand* world::after_step() noexcept {
  // On a fiber, nothing may unwind past here: a task's exception or one
  // from pick/should_crash waits in chain_error_ for the driver.
  try {
    finish_step();
    chain_end_ = decide();
    if (chain_end_.k == action::kind::step) return &begin_step(chain_end_.pid);
  } catch (...) {
    chain_error_ = std::current_exception();
  }
  return nullptr;
}

world::action world::run_steps(int pid) {
  // The fiber engine hands steps from fiber to fiber and returns once
  // after_step() says the driver is needed; the thread engine returns after
  // every step, and the driver takes the same decision itself.
  step_relay* relay = engine_ == engine_kind::fiber ? this : nullptr;
  strand* s = &begin_step(pid);
  do {
    s->step(relay);
  } while (relay == nullptr && (s = after_step()) != nullptr);
  if (chain_error_) {
    std::rethrow_exception(std::exchange(chain_error_, nullptr));
  }
  return chain_end_;
}

run_report world::run(scheduler& sched, crash_plan* crashes,
                      const std::function<void()>& on_crash_done) {
  run_report rep;
  active_sched_desc_ = sched.describe();
  sched_ = &sched;
  crashes_ = crashes;
  const int n = nprocs();
  settle();  // tasks submitted since the last settle point
  for (action a = decide(); a.k != action::kind::idle;) {
    if (a.k == action::kind::step) {
      a = run_steps(a.pid);
    } else if (a.k == action::kind::crash) {
      crash();
      ++rep.crashes;
      if (on_crash_done) on_crash_done();
      settle();  // recovery tasks that finished before their first access
      a = decide();
    } else {
      rep.hit_step_limit = true;
      rep.limit_note = "step limit " + std::to_string(cfg_.max_steps) +
                       " hit under scheduler " + sched.describe();
      if (cfg_.visibility != wmm::visibility_model::sc) {
        rep.limit_note += ", visibility " +
                          std::string(wmm::visibility_name(cfg_.visibility)) +
                          ", " + std::to_string(pending_stores()) +
                          " pending stores";
      }
      break;
    }
  }
  sched_ = nullptr;
  crashes_ = nullptr;
  // Quiescence: with no runnable process left, remaining buffered stores
  // can no longer be observed out of order — retire them (counted drain
  // steps) so the post-run NVM state matches what sc would have reached.
  for (int p = 0; p < n && !bufs_.empty(); ++p) drain_fully(p);
  for (const wmm::store_buffer& b : bufs_) {
    max_pending_ = std::max(max_pending_,
                            static_cast<std::uint64_t>(b.high_water()));
  }
  rep.steps = step_no_;
  rep.lost_persistence = lost_persistence_;
  rep.nvm_cells = domain_.cells_attached();
  rep.nvm_bytes = domain_.bytes_attached();
  rep.drain_steps = drain_steps_;
  rep.max_pending_stores = max_pending_;
  return rep;
}

std::string world::describe_schedule() const {
  std::string s =
      !active_sched_desc_.empty() ? active_sched_desc_ : "(no scheduler)";
  s += " | visibility ";
  s += wmm::visibility_name(cfg_.visibility);
  if (cfg_.visibility != wmm::visibility_model::sc) {
    s += " | " + std::to_string(pending_stores()) + " pending stores";
  }
  return s;
}

// ---------------------------------------------------------------------------
// policies

divisor::divisor(std::uint64_t d) noexcept : d_(d) {
  assert(d > 0);
  // For d == 1 the sum wraps to 0, and remainder() returns 0 as it must.
  m_ = ~u128{0} / d + 1;
}

int round_robin_scheduler::pick(const std::vector<int>& runnable,
                                std::uint64_t) {
  int pid = runnable[mods_.remainder(next_, runnable.size())];
  ++next_;
  return pid;
}

int random_scheduler::pick(const std::vector<int>& runnable, std::uint64_t) {
  return runnable[mods_.remainder(next_rand(state_), runnable.size())];
}

int scripted_scheduler::pick(const std::vector<int>& runnable, std::uint64_t) {
  if (pos_ < script_.size()) {
    int want = script_[pos_++];
    if (std::binary_search(runnable.begin(), runnable.end(), want)) {
      return want;
    }
  }
  return runnable.front();
}

bool crash_at_steps::should_crash(std::uint64_t step_no) {
  for (std::uint64_t& a : at_) {
    if (a == step_no) {
      a = static_cast<std::uint64_t>(-1);  // fire once
      return true;
    }
  }
  return false;
}

bool random_crashes::should_crash(std::uint64_t) {
  if (left_ == 0) return false;
  double u = static_cast<double>(next_rand(state_) >> 11) / 9007199254740992.0;
  if (u < rate_) {
    --left_;
    return true;
  }
  return false;
}

}  // namespace detect::sim
