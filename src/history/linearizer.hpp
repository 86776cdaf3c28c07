// Linearizability checker (Wing & Gong style exhaustive search with state
// memoization).
//
// Input: a set of operation records with real-time intervals taken from the
// event log, plus a sequential spec. The checker searches for a total order
// that (a) respects real-time precedence (an op that responded before another
// was invoked must be ordered first), (b) replays through the spec with every
// constrained response matching, and (c) includes every non-optional op.
// Optional ops (pending at a crash or at the end of the run, never recovered)
// may be dropped — exactly the freedom durable linearizability grants.
//
// Complexity is exponential in the worst case; memoization on
// (set-of-done-ops, spec-state) makes realistic test histories fast. A node
// budget turns pathological inputs into an explicit "inconclusive" rather
// than a hang. No search node allocates in the steady state: real-time
// predecessors are one bit mask per op, the spec state is kept once per
// depth and overwritten in place (spec::assign_from), and the memo key is
// one word, (done-mask id, state id), both interned through exact tables.
// Those tables live in a per-thread workspace that each check resets on
// entry, so a small check allocates none of them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "history/specs.hpp"

namespace detect::hist {

inline constexpr std::size_t k_npos = static_cast<std::size_t>(-1);

struct op_record {
  int pid = -1;
  op_desc desc;
  std::size_t invoke_index = 0;
  std::size_t response_index = k_npos;  // k_npos ⇒ open-ended interval
  value_t response = k_bottom;
  bool has_response = false;  // response is constrained and must match
  bool optional = false;      // may be excluded from the linearization

  /// Appends the text `to_string()` returns, e.g.
  /// `p0:cas(0,5)@obj1 [3,7] -> 1` or `p1:push(4)@obj0 [9,open] (optional)`.
  void append_to(std::string& out) const;
  std::string to_string() const;
};

struct lin_result {
  bool linearizable = false;
  bool exhausted_budget = false;
  /// Search nodes expanded before the verdict — the cost figure per-object
  /// decomposition is measured against (see hist::checker).
  std::size_t nodes = 0;
  /// Indices into the input vector in linearization order (dropped optional
  /// ops are absent). Valid when linearizable.
  std::vector<std::size_t> witness;
  std::string error;  // diagnostic when not linearizable
};

/// Check linearizability of at most 64 operations against `initial`.
lin_result check_linearizable(const std::vector<op_record>& ops,
                              const spec& initial,
                              std::size_t node_budget = 4'000'000);

}  // namespace detect::hist
