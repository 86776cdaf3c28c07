// Client runtime: drives per-process operation scripts over detectable
// objects inside a simulated world, implementing the caller-side protocol of
// §2 and recording the execution history for the checker.
//
// Before each invocation the runtime announces the operation (Ann_p.op),
// resets the auxiliary state (Ann_p.resp := ⊥, Ann_p.CP := 0 — unless the
// object declares it needs none, like Algorithm 3 or the stripped Theorem-2
// counterexamples), and marks the announcement valid. After a crash it
// consults the announcement to decide whether a recovery function must run,
// exactly as the model prescribes ("which function should be invoked in
// order to recover is determined according to the value of Ann_p.op").
// `done_seq` is the client's durable program counter: it resumes the script
// from the first unfinished operation.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/object.hpp"
#include "history/log.hpp"
#include "sim/world.hpp"

namespace detect::core {

class runtime {
 public:
  /// What a client does when recovery reports fail ("the caller can decide
  /// whether or not to reattempt", §1).
  enum class fail_policy : std::uint8_t { skip, retry };

  runtime(sim::world& w, hist::log& lg, announcement_board& board)
      : world_(&w), log_(&lg), board_(&board) {}

  /// Register `obj` under `id` and return the id (so registries can chain
  /// on it). Duplicate ids are rejected: silently overwriting the map entry
  /// would re-route every scripted op of the old object.
  std::uint32_t register_object(std::uint32_t id, detectable_object& obj) {
    auto [it, inserted] = objects_.emplace(id, &obj);
    if (!inserted) {
      throw std::invalid_argument("runtime: duplicate object id " +
                                  std::to_string(id));
    }
    return id;
  }

  /// Remove `id`'s registration (live object migration hands the object to
  /// another runtime). Throws std::invalid_argument when `id` is unknown.
  void unregister_object(std::uint32_t id) {
    if (objects_.erase(id) == 0) {
      throw std::invalid_argument("runtime: cannot unregister unknown object " +
                                  std::to_string(id));
    }
  }

  void set_script(int pid, std::vector<hist::op_desc> ops) {
    scripts_[pid] = std::move(ops);
  }

  /// Append `ops` to pid's script (creating an empty one first if pid has
  /// none, so the pid gets a client task either way). Multi-round drivers
  /// extend each world's program by the round's ops instead of re-installing
  /// the whole cumulative program; `done_seq` resumes after the executed
  /// prefix either way.
  void extend_script(int pid, const std::vector<hist::op_desc>& ops) {
    std::vector<hist::op_desc>& script = scripts_[pid];
    script.insert(script.end(), ops.begin(), ops.end());
  }

  void set_fail_policy(fail_policy p) { policy_ = p; }

  /// Submit the client task of every scripted process.
  void start() {
    for (const auto& [pid, ops] : scripts_) {
      world_->submit(pid, [this, pid = pid] { client_main(pid); });
    }
  }

  /// Crash epilogue: log the crash and resubmit every client; each resumes
  /// from its durable announcement + program counter.
  void on_crash() {
    hist::event e;
    e.kind = hist::event_kind::crash;
    log_->append(e);
    start();
  }

  /// Convenience: start and drive the world to completion.
  sim::run_report run(sim::scheduler& sched, sim::crash_plan* crashes = nullptr) {
    start();
    return world_->run(sched, crashes, [this] { on_crash(); });
  }

  /// The announcement/invocation protocol for a single operation; public so
  /// harnesses (Theorem 2) can drive single ops manually.
  void announce_and_invoke(int pid, hist::op_desc desc) {
    detectable_object& obj = *objects_.at(desc.object);
    ann_fields& ann = board_->of(pid);
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

  /// Recovery for process pid if its announcement demands one. Public for
  /// manual harnesses; `client_main` calls it on resume.
  void maybe_recover(int pid) {
    ann_fields& ann = board_->of(pid);
    if (ann.valid.load() == 0) return;
    hist::op_desc desc = ann.op.load();
    if (desc.client_seq <= ann.done_seq.load()) return;
    detectable_object& obj = *objects_.at(desc.object);
    log_event(hist::event_kind::recover_begin, pid, desc);
    recovery_result rr = obj.recover(pid, desc);
    {
      hist::event e;
      e.kind = hist::event_kind::recover_result;
      e.pid = pid;
      e.desc = desc;
      e.verdict = rr.verdict;
      e.value = rr.response;
      log_checkpoint();
      log_->append(e);
    }
    if (rr.verdict == hist::recovery_verdict::linearized) {
      ann.done_seq.store(desc.client_seq);
    } else if (policy_ == fail_policy::retry) {
      announce_and_invoke(pid, desc);  // fresh attempt of the same op
      ann.done_seq.store(desc.client_seq);
    } else {
      ann.done_seq.store(desc.client_seq);  // give up on this op
    }
  }

 private:
  void client_main(int pid) {
    maybe_recover(pid);
    ann_fields& ann = board_->of(pid);
    const std::vector<hist::op_desc>& script = scripts_.at(pid);
    for (std::uint64_t seq = ann.done_seq.load() + 1; seq <= script.size();
         ++seq) {
      hist::op_desc desc = script[seq - 1];
      desc.client_seq = seq;
      announce_and_invoke(pid, desc);
      ann.done_seq.store(seq);
    }
  }

  // Events are appended at a scheduler-granted control step so the log order
  // is the model's real-time order. Each event is also an epoch boundary of
  // the buffered persistency model: the write-behind buffer drains within
  // the same atomic step, so an operation's effects are durable by the time
  // its response is observable — a crash can only roll back whole
  // not-yet-visible suffixes, never a completed operation.
  void log_checkpoint() {
    nvm::hook_access(nvm::access::control);
    world_->domain().epoch_boundary();
  }

  void log_event(hist::event_kind kind, int pid, const hist::op_desc& desc,
                 value_t value = hist::k_bottom) {
    log_checkpoint();
    hist::event e;
    e.kind = kind;
    e.pid = pid;
    e.desc = desc;
    e.value = value;
    log_->append(e);
  }

  sim::world* world_;
  hist::log* log_;
  announcement_board* board_;
  std::map<std::uint32_t, detectable_object*> objects_;
  std::map<int, std::vector<hist::op_desc>> scripts_;
  fail_policy policy_ = fail_policy::skip;
};

}  // namespace detect::core
