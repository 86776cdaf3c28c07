#include "theory/aux_necessity.hpp"

#include "api/harness.hpp"

namespace detect::theory {

namespace {

bool invoke_logged(const std::vector<hist::event>& events, int pid,
                   std::uint64_t seq) {
  for (const hist::event& e : events) {
    if (e.kind == hist::event_kind::invoke && e.pid == pid &&
        e.desc.client_seq == seq) {
      return true;
    }
  }
  return false;
}

/// One full Figure-2 run. `e_branch` selects the E-branch (complete Opp,
/// re-invoke, crash after invocation) over the D-branch (crash with Opp
/// halted just before returning).
aux_outcome run_branch(const aux_scenario& s, bool e_branch) {
  api::harness h = api::harness::builder().procs(2).build();
  const std::uint32_t id = h.add(s.kind, s.params).id();

  auto submit_op = [&](int pid, hist::op_desc desc, std::uint64_t seq) {
    desc.object = id;
    h.submit_op(pid, desc, seq);
  };
  auto run_op = [&](int pid, const hist::op_desc& desc, std::uint64_t seq) {
    submit_op(pid, desc, seq);
    h.drive(pid);
    h.board().of(pid).done_seq.store(seq);
  };

  // --- H1: p's setup history, run to completion ----------------------------
  std::uint64_t pseq = 0;
  for (const hist::op_desc& op : s.h1) run_op(0, op, ++pseq);

  // --- Common prefix: p executes Opp and halts just before returning -----
  const std::uint64_t opp_seq = ++pseq;
  submit_op(0, s.opp, opp_seq);
  // Step p until it is parked at the response-logging checkpoint: all memory
  // effects of Opp done, response not yet delivered.
  while (!(invoke_logged(h.events(), 0, opp_seq) &&
           h.world().pending_access(0) == nvm::access::control)) {
    h.world().step(0);
  }

  // --- γ: q performs Op′ and the p-free extension ------------------------
  std::uint64_t qseq = 0;
  run_op(1, s.op1, ++qseq);
  for (const hist::op_desc& ext : s.extension) run_op(1, ext, ++qseq);

  if (e_branch) {
    // p returns from Opp...
    h.drive(0);
    h.board().of(0).done_seq.store(opp_seq);
    // ...invokes a second Opp; crash immediately after the invocation.
    submit_op(0, s.opp, opp_seq + 1);
    while (!invoke_logged(h.events(), 0, opp_seq + 1)) h.world().step(0);
  }
  h.crash_now();

  // --- p recovers ---------------------------------------------------------
  h.submit_recovery(0);
  h.drive(0);

  // --- q probes with Opq ---------------------------------------------------
  run_op(1, s.opq, ++qseq);

  aux_outcome out;
  for (const hist::event& e : h.events()) {
    if (e.kind == hist::event_kind::recover_result && e.pid == 0) {
      out.verdict = e.verdict;
      out.recovered_value = e.value;
    } else if (e.kind == hist::event_kind::response && e.pid == 1) {
      out.probe_response = e.value;
    }
  }
  const hist::check_result cr = h.check();
  out.violation = !cr.ok;
  out.detail = cr.message;
  return out;
}

aux_scenario scenario(std::string name, std::string kind,
                      api::object_params params = {}) {
  aux_scenario s;
  s.name = std::move(name);
  s.kind = std::move(kind);
  s.params = params;
  return s;
}

}  // namespace

aux_outcome run_e_branch(const aux_scenario& s) { return run_branch(s, true); }
aux_outcome run_d_branch(const aux_scenario& s) { return run_branch(s, false); }

aux_scenario register_scenario(bool stripped) {
  aux_scenario s =
      stripped ? scenario("register (no auxiliary state)", "stripped_reg")
               : scenario("register (Algorithm 1)", "reg");
  // Lemma 3 witness: Opp = write_p(1), Op′ = read_q, extension = write_q(0),
  // Opq = read_q.
  s.opp = {0, hist::opcode::reg_write, 1, 0, 0};
  s.op1 = {0, hist::opcode::reg_read, 0, 0, 0};
  s.extension = {{0, hist::opcode::reg_write, 0, 0, 0}};
  s.opq = {0, hist::opcode::reg_read, 0, 0, 0};
  return s;
}

aux_scenario cas_scenario(bool stripped) {
  aux_scenario s = stripped
                       ? scenario("CAS (no auxiliary state)", "stripped_cas")
                       : scenario("CAS (Algorithm 2)", "cas");
  // Lemma 6 witness: Opp = CAS_p(0,1), Op′ = CAS_q(0,1), extension =
  // CAS_q(1,0), Opq = CAS_q(0,1).
  s.opp = {0, hist::opcode::cas, 0, 1, 0};
  s.op1 = {0, hist::opcode::cas, 0, 1, 0};
  s.extension = {{0, hist::opcode::cas, 1, 0, 0}};
  s.opq = {0, hist::opcode::cas, 0, 1, 0};
  return s;
}

aux_scenario queue_scenario(bool stripped) {
  const api::object_params params{.capacity = 32};
  aux_scenario s =
      stripped
          ? scenario("queue (no auxiliary state)", "stripped_queue", params)
          : scenario("queue (op identifiers)", "queue", params);
  // Lemma 8 witness: H1 = Enq_p(10) ◦ Enq_p(11); Opp = Deq_p; Op′ = Deq_q;
  // extension = Enq_q(10) ◦ Enq_q(11); Opq = Deq_q.
  s.h1 = {{0, hist::opcode::enq, 10, 0, 0}, {0, hist::opcode::enq, 11, 0, 0}};
  s.opp = {0, hist::opcode::deq, 0, 0, 0};
  s.op1 = {0, hist::opcode::deq, 0, 0, 0};
  s.extension = {{0, hist::opcode::enq, 10, 0, 0},
                 {0, hist::opcode::enq, 11, 0, 0}};
  s.opq = {0, hist::opcode::deq, 0, 0, 0};
  return s;
}

aux_scenario counter_scenario(bool stripped) {
  aux_scenario s =
      stripped ? scenario("counter (no auxiliary state)", "stripped_counter")
               : scenario("counter (RMW capsule)", "counter");
  // Lemma 5 witness: Opp = Increment_p, Op′ = read_q, empty p-free
  // extension, Opq = read_q.
  s.opp = {0, hist::opcode::ctr_add, 1, 0, 0};
  s.op1 = {0, hist::opcode::ctr_read, 0, 0, 0};
  s.extension = {};
  s.opq = {0, hist::opcode::ctr_read, 0, 0, 0};
  return s;
}

aux_scenario max_register_scenario() {
  aux_scenario s =
      scenario("max register (Algorithm 3, no auxiliary state)", "max_reg");
  // The analogous schedule: Opp = writeMax_p(5), Op′ = read_q, extension =
  // writeMax_q(3), Opq = read_q. (No witness exists — Lemma 4 — so no
  // violation should arise.)
  s.opp = {0, hist::opcode::max_write, 5, 0, 0};
  s.op1 = {0, hist::opcode::max_read, 0, 0, 0};
  s.extension = {{0, hist::opcode::max_write, 3, 0, 0}};
  s.opq = {0, hist::opcode::max_read, 0, 0, 0};
  return s;
}

}  // namespace detect::theory
