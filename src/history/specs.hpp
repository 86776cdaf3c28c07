// Sequential specifications of every object type in the suite.
//
// A spec is a deterministic state machine: `apply` consumes an abstract
// operation and returns its response. Specs serve three consumers:
//   * the linearizability checker (candidate orders are validated against
//     the spec),
//   * the doubly-perturbing certificate machinery of §5 / appendix A
//     (histories are replayed on specs to compare responses),
//   * tests, as ground truth for sequential executions.
//
// `serialize` must be injective on states: the checker interns each state it
// reaches through an exact map from this encoding to a small id, and
// memoizes on (set of done ops, state id). Two states with one encoding
// would share an id, and the search would unsoundly prune one of them.
// `assign_from` lets the checker keep one state per search depth and
// overwrite it in place instead of cloning a fresh one per branch.
#pragma once

#include <cassert>
#include <deque>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "history/event.hpp"

namespace detect::hist {

class spec {
 public:
  virtual ~spec() = default;
  virtual std::unique_ptr<spec> clone() const = 0;
  /// Overwrite this state with `other`'s, reusing this state's storage.
  /// `other` must be a spec of the same dynamic type and, for a product, of
  /// the same objects in the same order, as any two clones of one spec are.
  virtual void assign_from(const spec& other) = 0;
  /// Apply `op`, mutate state, return the response.
  virtual value_t apply(const op_desc& op) = 0;
  /// Appends the text `serialize()` returns.
  virtual void serialize_to(std::string& out) const = 0;
  /// Injective encoding of the current state.
  std::string serialize() const {
    std::string out;
    serialize_to(out);
    return out;
  }
};

/// clone() and assign_from() of a spec whose state is its copyable members.
template <class Derived>
class value_spec : public spec {
 public:
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
  void assign_from(const spec& other) override {
    assert(typeid(other) == typeid(Derived));
    static_cast<Derived&>(*this) = static_cast<const Derived&>(other);
  }
};

/// Read/write register (§3), plus swap (fetch-and-store). Responses:
/// read → value, write → ack, swap → old value.
class register_spec final : public value_spec<register_spec> {
 public:
  explicit register_spec(value_t init = 0) : value_(init) {}
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override {
    append_int(out, value_);
  }

 private:
  value_t value_;
};

/// Try-lock / release pair. Operations carry the caller's pid in `a` (specs
/// are process-agnostic otherwise). lock_try → true iff acquired;
/// lock_release → true iff the caller held the lock.
class lock_spec final : public value_spec<lock_spec> {
 public:
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override {
    append_int(out, owner_);
  }

 private:
  value_t owner_ = -1;  // -1 = free
};

/// CAS object (§4). Responses: cas → true/false, read → value.
class cas_spec final : public value_spec<cas_spec> {
 public:
  explicit cas_spec(value_t init = 0) : value_(init) {}
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override {
    append_int(out, value_);
  }

 private:
  value_t value_;
};

/// Counter / fetch-and-add (appendix Lemmas 5, 7). `ctr_add` returns the old
/// value. An optional cap models the bounded counter of Lemma 5's corollary.
class counter_spec final : public value_spec<counter_spec> {
 public:
  explicit counter_spec(value_t init = 0, value_t cap = -1)
      : value_(init), cap_(cap) {}
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override {
    append_int(out, value_);
  }

 private:
  value_t value_;
  value_t cap_;  // -1 = unbounded
};

/// Resettable test-and-set. `tas_set` returns the previous bit.
class tas_spec final : public value_spec<tas_spec> {
 public:
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override {
    append_int(out, bit_);
  }

 private:
  value_t bit_ = 0;
};

/// FIFO queue (appendix Lemma 8). deq on empty returns k_empty.
class queue_spec final : public value_spec<queue_spec> {
 public:
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override;

 private:
  std::deque<value_t> items_;
};

/// LIFO stack (doubly-perturbing like the queue of Lemma 8). pop on empty
/// returns k_empty.
class stack_spec final : public value_spec<stack_spec> {
 public:
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override;

 private:
  std::vector<value_t> items_;
};

/// Max register (§5, Algorithm 3). read returns the largest value written.
class max_register_spec final : public value_spec<max_register_spec> {
 public:
  explicit max_register_spec(value_t init = 0) : max_(init) {}
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override {
    append_int(out, max_);
  }

 private:
  value_t max_;
};

/// Product spec: routes operations to per-object sub-specs by `desc.object`.
/// Linearizability is compositional, but mixed-object histories are checked
/// directly against the product when convenient.
class multi_spec final : public spec {
 public:
  multi_spec() = default;
  multi_spec(const multi_spec& other);
  multi_spec& operator=(const multi_spec&) = delete;

  void add_object(std::uint32_t id, std::unique_ptr<spec> s);
  std::unique_ptr<spec> clone() const override {
    return std::make_unique<multi_spec>(*this);
  }
  void assign_from(const spec& other) override;
  value_t apply(const op_desc& op) override;
  void serialize_to(std::string& out) const override;

 private:
  std::vector<std::pair<std::uint32_t, std::unique_ptr<spec>>> subs_;
};

/// Construct the natural spec for an opcode family; helper for tests.
std::unique_ptr<spec> make_spec_for(opcode family, value_t init = 0);

}  // namespace detect::hist
