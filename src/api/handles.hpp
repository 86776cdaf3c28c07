// Typed object handles — the descriptor-building half of the detect::api
// façade.
//
// A handle names one object registered with a harness or executor: it carries
// the object id the runtime routes on, the kind string it was created from,
// and a pointer to the implementation. Its methods construct correctly-typed
// `hist::op_desc` values bound to that id — `r.write(5)`, `c.cas(0, 1)`,
// `q.enq(7)` — so client scripts never spell opcodes or object ids by hand.
//
// Handles are typed by *opcode family*, not by implementation: an `api::reg`
// may front Algorithm 1, the Attiya-style baseline, a plain register, or a
// stripped/NRL wrapper — they all speak reg_read/reg_write. Implementation-
// specific members (ids_minted, holder, ...) are reached with `as<T>()`.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/object.hpp"

namespace detect::api {

using hist::value_t;

/// The opcode family a registry kind speaks; decides which typed handle fits
/// and which smoke script exercises it.
enum class op_family : std::uint8_t {
  reg,
  swap,
  cas,
  counter,
  tas,
  queue,
  stack,
  max_reg,
  lock,
};

class object_handle {
 public:
  object_handle() = default;
  object_handle(std::uint32_t id, op_family family,
                core::detectable_object* obj, std::string kind)
      : id_(id), family_(family), obj_(obj), kind_(std::move(kind)) {}

  std::uint32_t id() const noexcept { return id_; }
  op_family family() const noexcept { return family_; }
  const std::string& kind() const noexcept { return kind_; }

  core::detectable_object& object() const {
    if (obj_ == nullptr) throw std::logic_error("api: empty object handle");
    return *obj_;
  }

  /// Implementation-typed access (e.g. `q.as<core::detectable_queue>()`).
  /// Throws std::bad_cast if the handle fronts something else.
  template <typename T>
  T& as() const {
    return dynamic_cast<T&>(object());
  }

 protected:
  hist::op_desc make(hist::opcode code, value_t a = 0, value_t b = 0) const {
    return {id_, code, a, b, 0};
  }

 private:
  std::uint32_t id_ = 0;
  op_family family_ = op_family::reg;
  core::detectable_object* obj_ = nullptr;
  std::string kind_;
};

/// Read/write register (Algorithm 1 family).
struct reg : object_handle {
  reg() = default;
  explicit reg(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc write(value_t v) const { return make(hist::opcode::reg_write, v); }
  hist::op_desc read() const { return make(hist::opcode::reg_read); }
};

/// Fetch-and-store register: swap(v) returns the old value.
struct swap_reg : object_handle {
  swap_reg() = default;
  explicit swap_reg(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc swap(value_t v) const { return make(hist::opcode::swap, v); }
  hist::op_desc read() const { return make(hist::opcode::reg_read); }
};

/// CAS object (Algorithm 2 family).
struct cas : object_handle {
  cas() = default;
  explicit cas(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc compare_and_set(value_t expected, value_t desired) const {
    return make(hist::opcode::cas, expected, desired);
  }
  hist::op_desc read() const { return make(hist::opcode::cas_read); }
};

/// Counter / fetch-and-add: add(d) returns the old value.
struct counter : object_handle {
  counter() = default;
  explicit counter(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc add(value_t delta) const { return make(hist::opcode::ctr_add, delta); }
  hist::op_desc read() const { return make(hist::opcode::ctr_read); }
};

/// Resettable test-and-set: set() returns the previous bit.
struct tas : object_handle {
  tas() = default;
  explicit tas(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc set() const { return make(hist::opcode::tas_set); }
  hist::op_desc reset() const { return make(hist::opcode::tas_reset); }
};

/// FIFO queue: deq() responds k_empty on an empty queue.
struct queue : object_handle {
  queue() = default;
  explicit queue(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc enq(value_t v) const { return make(hist::opcode::enq, v); }
  hist::op_desc deq() const { return make(hist::opcode::deq); }
};

/// LIFO stack: pop() responds k_empty on an empty stack.
struct stack : object_handle {
  stack() = default;
  explicit stack(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc push(value_t v) const { return make(hist::opcode::push, v); }
  hist::op_desc pop() const { return make(hist::opcode::pop); }
};

/// Max register (Algorithm 3 family) — no auxiliary state.
struct max_reg : object_handle {
  max_reg() = default;
  explicit max_reg(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc write_max(value_t v) const { return make(hist::opcode::max_write, v); }
  hist::op_desc read() const { return make(hist::opcode::max_read); }
};

/// Recoverable try-lock. Operations carry the caller's pid as an argument
/// (the spec is process-agnostic otherwise).
struct lock : object_handle {
  lock() = default;
  explicit lock(object_handle h) : object_handle(std::move(h)) {}

  hist::op_desc try_lock(int pid) const { return make(hist::opcode::lock_try, pid); }
  hist::op_desc release(int pid) const { return make(hist::opcode::lock_release, pid); }
};

}  // namespace detect::api
