// Event vocabulary for recorded executions.
//
// Every simulated run produces a totally ordered event log (the simulator
// serializes all steps, so the log order is the real-time order of the
// model). The checker consumes this log to decide durable linearizability
// and detectability.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace detect::hist {

using value_t = std::int64_t;

/// Response value conventions.
inline constexpr value_t k_ack = 0;                // writes / enq
inline constexpr value_t k_true = 1;               // successful CAS / TAS
inline constexpr value_t k_false = 0;              // failed CAS / TAS
inline constexpr value_t k_empty = std::numeric_limits<value_t>::min() + 7;
/// "⊥" — response not yet persisted.
inline constexpr value_t k_bottom = std::numeric_limits<value_t>::min();

/// Abstract operation codes across all object types in the suite.
enum class opcode : std::uint8_t {
  nop,
  reg_read,
  reg_write,
  swap,          // a = new value; response = old value (fetch-and-store)
  cas,           // a = expected, b = new
  cas_read,
  ctr_read,
  ctr_add,       // fetch-and-add; a = delta; response = old value
  tas_set,       // test-and-set; response = previous bit
  tas_reset,
  enq,           // a = value
  deq,           // response = value or k_empty
  push,          // a = value
  pop,           // response = value or k_empty
  max_write,     // a = value
  max_read,
  lock_try,      // a = caller pid; response = true/false
  lock_release,  // a = caller pid; response = true, or false if not holder
};

const char* opcode_name(opcode c) noexcept;

/// Appends `v` in decimal, as `std::ostream << v` prints it. Every text the
/// history layer builds (event lines, spec states, checker messages) formats
/// its numbers through this.
inline void append_int(std::string& out, std::integral auto v) {
  char buf[24];  // INT64_MIN and UINT64_MAX both take 20 characters
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Abstract operation descriptor: which object, which operation, with which
/// arguments. `client_seq` is the calling client's private program counter
/// (used by the runtime to resume after a crash; it is private durable client
/// state, not an argument of the abstract operation).
struct op_desc {
  std::uint32_t object = 0;
  opcode code = opcode::nop;
  value_t a = 0;
  value_t b = 0;
  std::uint64_t client_seq = 0;

  /// Appends the text `to_string()` returns, e.g. `cas(0,5)@obj1`.
  void append_to(std::string& out) const;
  std::string to_string() const;

  bool operator==(const op_desc&) const = default;
};

/// Outcome of a recovery function, per the detectability contract (§2):
/// `fail` means the operation was not linearized; `linearized` carries its
/// response.
enum class recovery_verdict : std::uint8_t { none, linearized, fail };

enum class event_kind : std::uint8_t {
  invoke,          // operation invoked
  response,        // operation returned normally; `value` = response
  crash,           // system-wide crash (pid unused)
  recover_begin,   // process entered Op.Recover
  recover_result,  // recovery completed; `verdict` (+`value` if linearized)
};

struct event {
  event_kind kind = event_kind::invoke;
  int pid = -1;
  op_desc desc;
  value_t value = k_bottom;
  recovery_verdict verdict = recovery_verdict::none;

  /// Appends the text `to_string()` returns, e.g.
  /// `p0 resp    cas(0,5)@obj1 -> 1`, with no trailing newline.
  void append_to(std::string& out) const;
  std::string to_string() const;
};

/// The event log as text: each event's `to_string()` followed by '\n'.
/// Every log printer (`log::to_string`, `executor::log_text`, `api::replay`)
/// formats through this one function.
std::string format_log(const std::vector<event>& events);

}  // namespace detect::hist
