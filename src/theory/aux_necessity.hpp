// Theorem 2 live harness (experiment E3): execute the proof's adversarial
// schedule (Figure 2) against real implementations and observe whether
// detectability survives.
//
// The schedule, specialized to the read/write witness of Lemma 3 (and its
// analogues for CAS / max register):
//   1. p completes Opp (e.g. write_p(v1)).           — the proof's C′_β
//   2. q completes Op′ (read_q) and the p-free
//      extension (write_q(v0)), reaching H2.          — the proof's C′_γ
//   3. E-branch: p invokes a second Opp; the system crashes immediately
//      after the invocation, before the operation performs any step.
//   4. p recovers (Op.Recover with the same arguments).
//   5. q performs Opq (read_q); the full history is checked for durable
//      linearizability + detectability.
//
// Without auxiliary state the recovery in step 4 cannot distinguish the
// fresh, never-executed invocation from the completed first one: it finds the
// stale persisted response and answers "linearized" — and step 5's
// observation contradicts it (the checker reports a violation). With the
// caller-side resets of Ann_p.resp/CP the same schedule is handled correctly,
// and Algorithm 3 (max register, not doubly-perturbing) is immune even with
// no auxiliary state because its recovery re-invokes an idempotent operation.
//
// The D-branch (crash just before the *first* Opp returns) is also provided:
// there the stale-response answer happens to be right — the two branches are
// indistinguishable to p, which is exactly the engine of the proof.
//
// A scenario is data only: a registry kind plus the witness ops. Each run
// builds the object through api::harness and steps the Figure-2 schedule with
// the harness's manual-driving helpers, so the stripped variants are the
// registry's stripped_* kinds and the check is the harness's own.
#pragma once

#include <string>
#include <vector>

#include "api/registry.hpp"
#include "history/event.hpp"

namespace detect::theory {

/// Everything needed to run the Figure-2 schedule against one object kind.
struct aux_scenario {
  std::string name;
  std::string kind;                      // registry kind under test
  api::object_params params;             // its construction parameters
  std::vector<hist::op_desc> h1;         // H1: ops by p, run to completion
  hist::op_desc opp;                     // the witnessing op by p (pid 0)
  hist::op_desc op1;                     // Op′ by q (pid 1)
  std::vector<hist::op_desc> extension;  // p-free extension ops by q
  hist::op_desc opq;                     // the final probe by q
};

struct aux_outcome {
  bool violation = false;                  // checker rejected the history
  hist::recovery_verdict verdict =         // what recovery claimed in step 4
      hist::recovery_verdict::none;
  hist::value_t recovered_value = hist::k_bottom;
  hist::value_t probe_response = hist::k_bottom;  // Opq's response
  std::string detail;                      // checker message on violation
};

/// E-branch: crash immediately after the second invocation of Opp.
aux_outcome run_e_branch(const aux_scenario& s);

/// D-branch: crash just before the first Opp returns (all its memory effects
/// done, response not yet delivered to the caller).
aux_outcome run_d_branch(const aux_scenario& s);

/// Ready-made scenarios. `stripped` controls whether the caller provides the
/// auxiliary resets (false ⇒ Definition 1's channels closed).
aux_scenario register_scenario(bool stripped);
aux_scenario cas_scenario(bool stripped);
aux_scenario queue_scenario(bool stripped);
aux_scenario counter_scenario(bool stripped);
aux_scenario max_register_scenario();

}  // namespace detect::theory
