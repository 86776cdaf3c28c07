// Tests for sequential specs, the linearizability checker, and the
// durable-linearizability/detectability record builder.
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "history/checker.hpp"
#include "history/linearizer.hpp"
#include "history/specs.hpp"

namespace {

using namespace detect;
using hist::k_ack;
using hist::k_bottom;
using hist::k_empty;
using hist::k_false;
using hist::k_npos;
using hist::k_true;
using hist::op_desc;
using hist::opcode;

op_desc mk(opcode c, hist::value_t a = 0, hist::value_t b = 0) {
  return {0, c, a, b, 0};
}

// ---- specs -------------------------------------------------------------------

TEST(specs, register_semantics) {
  hist::register_spec s(5);
  EXPECT_EQ(s.apply(mk(opcode::reg_read)), 5);
  EXPECT_EQ(s.apply(mk(opcode::reg_write, 9)), k_ack);
  EXPECT_EQ(s.apply(mk(opcode::reg_read)), 9);
}

TEST(specs, cas_semantics) {
  hist::cas_spec s(0);
  EXPECT_EQ(s.apply(mk(opcode::cas, 1, 2)), k_false);
  EXPECT_EQ(s.apply(mk(opcode::cas, 0, 2)), k_true);
  EXPECT_EQ(s.apply(mk(opcode::cas_read)), 2);
}

TEST(specs, counter_semantics_and_cap) {
  hist::counter_spec s(0, 2);
  EXPECT_EQ(s.apply(mk(opcode::ctr_add, 1)), 0);
  EXPECT_EQ(s.apply(mk(opcode::ctr_add, 1)), 1);
  EXPECT_EQ(s.apply(mk(opcode::ctr_add, 1)), 2);
  EXPECT_EQ(s.apply(mk(opcode::ctr_read)), 2) << "bounded counter saturates";
}

TEST(specs, tas_semantics) {
  hist::tas_spec s;
  EXPECT_EQ(s.apply(mk(opcode::tas_set)), 0);
  EXPECT_EQ(s.apply(mk(opcode::tas_set)), 1);
  EXPECT_EQ(s.apply(mk(opcode::tas_reset)), k_ack);
  EXPECT_EQ(s.apply(mk(opcode::tas_set)), 0);
}

TEST(specs, queue_fifo_and_empty) {
  hist::queue_spec s;
  EXPECT_EQ(s.apply(mk(opcode::deq)), k_empty);
  s.apply(mk(opcode::enq, 1));
  s.apply(mk(opcode::enq, 2));
  EXPECT_EQ(s.apply(mk(opcode::deq)), 1);
  EXPECT_EQ(s.apply(mk(opcode::deq)), 2);
  EXPECT_EQ(s.apply(mk(opcode::deq)), k_empty);
}

TEST(specs, max_register_semantics) {
  hist::max_register_spec s(0);
  s.apply(mk(opcode::max_write, 5));
  s.apply(mk(opcode::max_write, 3));
  EXPECT_EQ(s.apply(mk(opcode::max_read)), 5);
}

TEST(specs, multi_routes_by_object) {
  hist::multi_spec m;
  m.add_object(0, std::make_unique<hist::register_spec>(0));
  m.add_object(1, std::make_unique<hist::counter_spec>(0));
  op_desc w = mk(opcode::reg_write, 7);
  w.object = 0;
  op_desc a = mk(opcode::ctr_add, 2);
  a.object = 1;
  m.apply(w);
  m.apply(a);
  op_desc r0 = mk(opcode::reg_read);
  r0.object = 0;
  op_desc r1 = mk(opcode::ctr_read);
  r1.object = 1;
  EXPECT_EQ(m.apply(r0), 7);
  EXPECT_EQ(m.apply(r1), 2);
}

TEST(specs, clone_is_deep) {
  hist::queue_spec s;
  s.apply(mk(opcode::enq, 1));
  auto c = s.clone();
  s.apply(mk(opcode::enq, 2));
  EXPECT_EQ(c->apply(mk(opcode::deq)), 1);
  EXPECT_EQ(c->apply(mk(opcode::deq)), k_empty)
      << "clone must not see post-clone mutations";
}

// ---- state reuse (spec::assign_from) --------------------------------------------

// One of every spec, each with an op alphabet covering its operations.
struct spec_case {
  const char* name;
  std::unique_ptr<hist::spec> proto;
  std::vector<op_desc> alphabet;
};

op_desc on(std::uint32_t object, op_desc d) {
  d.object = object;
  return d;
}

std::vector<spec_case> every_spec() {
  std::vector<spec_case> out;
  out.push_back({"register", std::make_unique<hist::register_spec>(3),
                 {mk(opcode::reg_read), mk(opcode::reg_write, 1),
                  mk(opcode::reg_write, 2), mk(opcode::swap, 5)}});
  out.push_back({"lock", std::make_unique<hist::lock_spec>(),
                 {mk(opcode::lock_try, 0), mk(opcode::lock_try, 1),
                  mk(opcode::lock_release, 0), mk(opcode::lock_release, 1)}});
  out.push_back({"cas", std::make_unique<hist::cas_spec>(0),
                 {mk(opcode::cas_read), mk(opcode::cas, 0, 1),
                  mk(opcode::cas, 1, 2), mk(opcode::cas, 2, 0)}});
  out.push_back({"counter", std::make_unique<hist::counter_spec>(0, 9),
                 {mk(opcode::ctr_read), mk(opcode::ctr_add, 1),
                  mk(opcode::ctr_add, 3)}});
  out.push_back({"tas", std::make_unique<hist::tas_spec>(),
                 {mk(opcode::tas_set), mk(opcode::tas_reset)}});
  out.push_back({"queue", std::make_unique<hist::queue_spec>(),
                 {mk(opcode::enq, 1), mk(opcode::enq, 2), mk(opcode::deq)}});
  out.push_back({"stack", std::make_unique<hist::stack_spec>(),
                 {mk(opcode::push, 1), mk(opcode::push, 2), mk(opcode::pop)}});
  out.push_back({"max_register", std::make_unique<hist::max_register_spec>(0),
                 {mk(opcode::max_read), mk(opcode::max_write, 4),
                  mk(opcode::max_write, 7)}});
  auto product = std::make_unique<hist::multi_spec>();
  product->add_object(0, std::make_unique<hist::stack_spec>());
  product->add_object(1, std::make_unique<hist::register_spec>(0));
  out.push_back({"multi(stack, register)", std::move(product),
                 {on(0, mk(opcode::push, 1)), on(0, mk(opcode::push, 2)),
                  on(0, mk(opcode::pop)), on(1, mk(opcode::reg_read)),
                  on(1, mk(opcode::reg_write, 6))}});
  return out;
}

// A state overwritten in place through assign_from is indistinguishable
// from a fresh clone: the same encoding, and the same responses from there
// on. The reused state first runs an unrelated op sequence, so its storage
// holds a different (longer or shorter) state when it is overwritten.
TEST(specs, assign_from_matches_a_fresh_clone) {
  std::mt19937_64 rng(7);
  for (const spec_case& c : every_spec()) {
    const auto draw = [&] { return c.alphabet[rng() % c.alphabet.size()]; };
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<op_desc> ops(24);
      for (op_desc& op : ops) op = draw();
      std::unique_ptr<hist::spec> reused = c.proto->clone();
      for (int junk = 0; junk < trial; ++junk) reused->apply(draw());

      std::unique_ptr<hist::spec> cur = c.proto->clone();
      for (std::size_t k = 0; k <= ops.size(); ++k) {
        const std::string before = cur->serialize();
        reused->assign_from(*cur);
        ASSERT_EQ(reused->serialize(), before) << c.name << " step " << k;
        std::unique_ptr<hist::spec> fresh = cur->clone();
        for (std::size_t j = k; j < ops.size(); ++j) {
          ASSERT_EQ(reused->apply(ops[j]), fresh->apply(ops[j]))
              << c.name << " step " << k << " op " << j;
          ASSERT_EQ(reused->serialize(), fresh->serialize())
              << c.name << " step " << k << " op " << j;
        }
        EXPECT_EQ(cur->serialize(), before)
            << c.name << ": assign_from must copy, not share, the state";
        if (k < ops.size()) cur->apply(ops[k]);
      }
    }
  }
}

TEST(specs, serialize_to_appends) {
  for (const spec_case& c : every_spec()) {
    std::string out = "prefix|";
    c.proto->serialize_to(out);
    EXPECT_EQ(out, "prefix|" + c.proto->serialize()) << c.name;
  }
}

// ---- linearizer ----------------------------------------------------------------

hist::op_record rec(int pid, op_desc d, std::size_t inv, std::size_t resp,
                    hist::value_t r) {
  hist::op_record o;
  o.pid = pid;
  o.desc = d;
  o.invoke_index = inv;
  o.response_index = resp;
  o.response = r;
  o.has_response = true;
  return o;
}

TEST(linearizer, sequential_history_accepts) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 1),
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_TRUE(r.linearizable) << r.error;
}

TEST(linearizer, stale_read_rejected) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 0),  // must see 1
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, concurrent_ops_may_order_either_way) {
  // write(1) concurrent with read: read may see 0 or 1.
  for (hist::value_t seen : {0, 1}) {
    std::vector<hist::op_record> ops{
        rec(0, mk(opcode::reg_write, 1), 0, 3, k_ack),
        rec(1, mk(opcode::reg_read), 1, 2, seen),
    };
    auto r = hist::check_linearizable(ops, hist::register_spec(0));
    EXPECT_TRUE(r.linearizable) << "seen=" << seen << "\n" << r.error;
  }
}

TEST(linearizer, optional_op_may_be_dropped) {
  hist::op_record pending = rec(0, mk(opcode::reg_write, 1), 0, k_npos, 0);
  pending.has_response = false;
  pending.optional = true;
  pending.response_index = k_npos;
  std::vector<hist::op_record> ops{
      pending,
      rec(1, mk(opcode::reg_read), 1, 2, 0),  // never saw the write
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_TRUE(r.linearizable) << r.error;
}

TEST(linearizer, mandatory_op_cannot_be_dropped) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 0),  // stale — write is mandatory
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, cas_double_success_rejected) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::cas, 0, 1), 0, 1, k_true),
      rec(1, mk(opcode::cas, 0, 1), 2, 3, k_true),  // impossible
  };
  auto r = hist::check_linearizable(ops, hist::cas_spec(0));
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, queue_fifo_violation_rejected) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::enq, 1), 0, 1, k_ack),
      rec(0, mk(opcode::enq, 2), 2, 3, k_ack),
      rec(1, mk(opcode::deq), 4, 5, 2),  // out of order
  };
  auto r = hist::check_linearizable(ops, hist::queue_spec());
  EXPECT_FALSE(r.linearizable);
}

TEST(linearizer, witness_has_all_nonoptional_ops) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::reg_write, 1), 0, 1, k_ack),
      rec(1, mk(opcode::reg_read), 2, 3, 1),
  };
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  ASSERT_TRUE(r.linearizable);
  EXPECT_EQ(r.witness.size(), 2u);
}

hist::op_record pending(int pid, op_desc d, std::size_t inv) {
  hist::op_record o = rec(pid, d, inv, k_npos, 0);
  o.has_response = false;
  o.optional = true;
  return o;
}

// Replays `witness` through a fresh copy of `initial`: every constrained
// response must match, and every mandatory op must be present.
void expect_witness_replays(const std::vector<hist::op_record>& ops,
                            const hist::spec& initial,
                            const std::vector<std::size_t>& witness) {
  std::unique_ptr<hist::spec> s = initial.clone();
  std::vector<bool> seen(ops.size(), false);
  for (std::size_t i : witness) {
    ASSERT_LT(i, ops.size());
    EXPECT_FALSE(seen[i]) << "op " << i << " linearized twice";
    seen[i] = true;
    const hist::value_t resp = s->apply(ops[i].desc);
    if (ops[i].has_response) {
      EXPECT_EQ(resp, ops[i].response) << ops[i].to_string();
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].optional) {
      EXPECT_TRUE(seen[i]) << ops[i].to_string();
    }
  }
}

// Pending pushes and pops leave the search both an apply branch and a drop
// branch at every depth, so states reused per depth are overwritten between
// siblings while a dropped branch still reads its parent's state. The
// mandatory pops only fit one arrangement of the pending ops, found after
// backtracking through many others.
TEST(linearizer, drop_and_apply_branches_share_a_depth) {
  std::vector<hist::op_record> ops{
      rec(0, mk(opcode::push, 1), 0, 1, k_ack),
      pending(1, mk(opcode::push, 2), 2),
      pending(2, mk(opcode::pop), 3),
      pending(3, mk(opcode::push, 3), 4),
      pending(4, mk(opcode::push, 4), 5),
      pending(5, mk(opcode::pop), 6),
      rec(0, mk(opcode::pop), 7, 8, 3),
      rec(0, mk(opcode::pop), 9, 10, 2),
      rec(0, mk(opcode::pop), 11, 12, 1),
  };
  hist::stack_spec initial;
  auto r = hist::check_linearizable(ops, initial);
  ASSERT_TRUE(r.linearizable) << r.error;
  expect_witness_replays(ops, initial, r.witness);
  // The first witness in search order drops the first pending pop; the
  // clone-per-branch search found the same one with the same node count.
  EXPECT_EQ(r.witness, (std::vector<std::size_t>{0, 1, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r.nodes, 87u);
}

// Reference: every real-time-respecting order, each step on a fresh clone.
bool brute_force_linearizable(const std::vector<hist::op_record>& ops,
                              const hist::spec& state, std::uint64_t done) {
  if (done == (std::uint64_t{1} << ops.size()) - 1) return true;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if ((done >> i) & 1) continue;
    bool ready = true;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (j != i && !((done >> j) & 1) && ops[j].response_index != k_npos &&
          ops[j].response_index < ops[i].invoke_index) {
        ready = false;
      }
    }
    if (!ready) continue;
    const std::uint64_t next = done | (std::uint64_t{1} << i);
    std::unique_ptr<hist::spec> after = state.clone();
    const hist::value_t resp = after->apply(ops[i].desc);
    if ((!ops[i].has_response || resp == ops[i].response) &&
        brute_force_linearizable(ops, *after, next)) {
      return true;
    }
    if (ops[i].optional && brute_force_linearizable(ops, state, next)) {
      return true;
    }
  }
  return false;
}

// Random small stack histories with pending ops: the memoized search with
// reused states agrees with the clone-per-step reference on every verdict,
// and every witness it returns replays.
TEST(linearizer, agrees_with_brute_force_on_random_stack_histories) {
  std::mt19937_64 rng(11);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 3 + rng() % 5;
    std::vector<hist::op_record> ops;
    std::size_t clock = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const op_desc d = rng() % 2 ? mk(opcode::push, 1 + rng() % 3)
                                  : mk(opcode::pop);
      const std::size_t inv = clock++;
      if (rng() % 4 == 0) {
        ops.push_back(pending(static_cast<int>(i), d, inv));
        continue;
      }
      clock += rng() % 3;  // later invocations may overlap this op
      const hist::value_t resp = d.code == opcode::push
                                     ? k_ack
                                     : static_cast<hist::value_t>(rng() % 4);
      ops.push_back(rec(static_cast<int>(i), d, inv, clock++,
                        resp == 0 ? k_empty : resp));
    }
    hist::stack_spec initial;
    const auto r = hist::check_linearizable(ops, initial);
    ASSERT_EQ(r.linearizable, brute_force_linearizable(ops, initial, 0))
        << "trial " << trial;
    if (r.linearizable) {
      expect_witness_replays(ops, initial, r.witness);
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(linearizer, rejects_oversized_histories) {
  std::vector<hist::op_record> ops(65, rec(0, mk(opcode::reg_read), 0, 1, 0));
  auto r = hist::check_linearizable(ops, hist::register_spec(0));
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.error.find("64"), std::string::npos);
}

// ---- checker / record builder ---------------------------------------------------

hist::event ev(hist::event_kind k, int pid, op_desc d,
               hist::value_t v = k_bottom,
               hist::recovery_verdict verdict = hist::recovery_verdict::none) {
  hist::event e;
  e.kind = k;
  e.pid = pid;
  e.desc = d;
  e.value = v;
  e.verdict = verdict;
  return e;
}

// ---- event text ---------------------------------------------------------------
// Pinned byte for byte: the event log's text feeds failure messages, fuzz
// artifacts and the golden replay hashes.

TEST(event_text, every_event_kind) {
  using hist::event_kind;
  using hist::recovery_verdict;
  const op_desc c{3, opcode::cas, 0, 5, 7};
  EXPECT_EQ(ev(event_kind::invoke, 1, c).to_string(),
            "p1 invoke  cas(0,5)@obj3 seq=7");
  EXPECT_EQ(ev(event_kind::response, 1, c, k_true).to_string(),
            "p1 resp    cas(0,5)@obj3 -> 1");
  EXPECT_EQ(ev(event_kind::crash, -1, {}).to_string(), "== CRASH ==");
  EXPECT_EQ(ev(event_kind::recover_begin, 2, c).to_string(),
            "p2 recover cas(0,5)@obj3");
  EXPECT_EQ(ev(event_kind::recover_result, 2, c, k_bottom,
               recovery_verdict::fail)
                .to_string(),
            "p2 verdict cas(0,5)@obj3 -> FAIL");
  EXPECT_EQ(ev(event_kind::recover_result, 2, c, k_false,
               recovery_verdict::linearized)
                .to_string(),
            "p2 verdict cas(0,5)@obj3 -> 0");
}

TEST(event_text, every_opcode_and_argument_shape) {
  const std::pair<opcode, const char*> cases[] = {
      {opcode::nop, "nop()@obj2"},
      {opcode::reg_read, "reg_read()@obj2"},
      {opcode::reg_write, "reg_write(-4)@obj2"},
      {opcode::swap, "swap(-4)@obj2"},
      {opcode::cas, "cas(-4,9)@obj2"},
      {opcode::cas_read, "cas_read()@obj2"},
      {opcode::ctr_read, "ctr_read()@obj2"},
      {opcode::ctr_add, "ctr_add(-4)@obj2"},
      {opcode::tas_set, "tas_set()@obj2"},
      {opcode::tas_reset, "tas_reset()@obj2"},
      {opcode::enq, "enq(-4)@obj2"},
      {opcode::deq, "deq()@obj2"},
      {opcode::push, "push(-4)@obj2"},
      {opcode::pop, "pop()@obj2"},
      {opcode::max_write, "max_write(-4)@obj2"},
      {opcode::max_read, "max_read()@obj2"},
      {opcode::lock_try, "lock_try(-4)@obj2"},
      {opcode::lock_release, "lock_release(-4)@obj2"},
  };
  for (const auto& [code, text] : cases) {
    const op_desc d{2, code, -4, 9, 0};
    EXPECT_EQ(d.to_string(), text);
  }
}

TEST(event_text, extreme_values) {
  using hist::event_kind;
  constexpr std::uint64_t max_seq = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t max_obj = std::numeric_limits<std::uint32_t>::max();
  const op_desc cas_min{max_obj, opcode::cas, k_bottom, k_empty, max_seq};
  EXPECT_EQ(cas_min.to_string(),
            "cas(-9223372036854775808,-9223372036854775801)@obj4294967295");
  EXPECT_EQ(ev(event_kind::invoke, 0, cas_min).to_string(),
            "p0 invoke  cas(-9223372036854775808,-9223372036854775801)"
            "@obj4294967295 seq=18446744073709551615");
  EXPECT_EQ(ev(event_kind::response, 3, mk(opcode::pop), k_empty).to_string(),
            "p3 resp    pop()@obj0 -> -9223372036854775801");
  EXPECT_EQ(ev(event_kind::response, 3, mk(opcode::reg_read)).to_string(),
            "p3 resp    reg_read()@obj0 -> -9223372036854775808");
  EXPECT_EQ(ev(event_kind::response, 12, mk(opcode::swap, -42), -1)
                .to_string(),
            "p12 resp    swap(-42)@obj0 -> -1");
  EXPECT_EQ(ev(event_kind::recover_result, 1, mk(opcode::ctr_add, -1),
               std::numeric_limits<hist::value_t>::max(),
               hist::recovery_verdict::linearized)
                .to_string(),
            "p1 verdict ctr_add(-1)@obj0 -> 9223372036854775807");
}

TEST(event_text, append_to_appends_and_format_log_joins_lines) {
  using hist::event_kind;
  const std::vector<hist::event> events{
      ev(event_kind::invoke, 0, mk(opcode::push, 8)),
      ev(event_kind::crash, -1, {}),
      ev(event_kind::recover_begin, 0, mk(opcode::push, 8)),
      ev(event_kind::recover_result, 0, mk(opcode::push, 8), k_bottom,
         hist::recovery_verdict::fail),
      ev(event_kind::invoke, 1, mk(opcode::pop)),
      ev(event_kind::response, 1, mk(opcode::pop), k_empty),
  };
  std::string joined;
  for (const hist::event& e : events) joined += e.to_string() + '\n';
  EXPECT_EQ(hist::format_log(events), joined);
  EXPECT_EQ(hist::format_log({}), "");

  std::string out = "prefix:";
  events[0].append_to(out);
  EXPECT_EQ(out, "prefix:p0 invoke  push(8)@obj0 seq=0");
  out = "[";
  events[0].desc.append_to(out);
  EXPECT_EQ(out, "[push(8)@obj0");
}

TEST(checker, normal_completion_builds_mandatory_record) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::response, 0, mk(opcode::reg_write, 1), k_ack),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].has_response);
  EXPECT_FALSE(recs[0].optional);
}

TEST(checker, fail_verdict_excludes_op) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1),
         k_bottom, hist::recovery_verdict::fail),
  };
  auto recs = hist::build_records(events);
  EXPECT_TRUE(recs.empty());
}

TEST(checker, linearized_verdict_closes_op_with_response) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1), k_ack,
         hist::recovery_verdict::linearized),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].has_response);
  EXPECT_EQ(recs[0].response, k_ack);
}

TEST(checker, unresolved_pending_op_is_optional) {
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].optional);
}

TEST(checker, orphan_linearized_verdict_synthesizes_record) {
  // Crash hit inside the announcement window; a re-invoking recovery then
  // executed and linearized the op.
  std::vector<hist::event> events{
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::max_write, 5)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::max_write, 5), k_ack,
         hist::recovery_verdict::linearized),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].invoke_index, 1u);
  EXPECT_EQ(recs[0].response_index, 2u);
}

TEST(checker, orphan_fail_verdict_ignored) {
  std::vector<hist::event> events{
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 5)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 5),
         k_bottom, hist::recovery_verdict::fail),
  };
  auto recs = hist::build_records(events);
  EXPECT_TRUE(recs.empty());
}

TEST(checker, duplicate_completion_report_is_ignored) {
  // Regression: a crash between an op's response and the client's durable
  // program-counter update makes recovery re-report "linearized" for an op
  // the log already closed. That report must not spawn a second record.
  op_desc w = mk(opcode::reg_write, 1);
  w.client_seq = 1;
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, w),
      ev(hist::event_kind::response, 0, w, k_ack),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, w),
      ev(hist::event_kind::recover_result, 0, w, k_ack,
         hist::recovery_verdict::linearized),
  };
  auto recs = hist::build_records(events);
  ASSERT_EQ(recs.size(), 1u) << "no phantom second record";
  // And the full check passes with a subsequent read seeing the write once.
  op_desc r = mk(opcode::reg_read);
  r.client_seq = 1;
  events.push_back(ev(hist::event_kind::invoke, 1, r));
  events.push_back(ev(hist::event_kind::response, 1, r, 1));
  auto res = hist::check_durable_linearizability(events, hist::register_spec(0));
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(checker, lock_spec_checks_mutual_exclusion) {
  // Two concurrent successful trylocks must be rejected by the lock spec.
  op_desc t0 = mk(opcode::lock_try, 0);
  op_desc t1 = mk(opcode::lock_try, 1);
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, t0),
      ev(hist::event_kind::response, 0, t0, k_true),
      ev(hist::event_kind::invoke, 1, t1),
      ev(hist::event_kind::response, 1, t1, k_true),  // impossible
  };
  auto res = hist::check_durable_linearizability(events, hist::lock_spec());
  EXPECT_FALSE(res.ok);
}

TEST(checker, detects_false_linearized_claim) {
  // Recovery claims a write was linearized, but a later read contradicts it.
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1), k_ack,
         hist::recovery_verdict::linearized),
      ev(hist::event_kind::invoke, 1, mk(opcode::reg_read)),
      ev(hist::event_kind::response, 1, mk(opcode::reg_read), 0),
  };
  auto r = hist::check_durable_linearizability(events, hist::register_spec(0));
  EXPECT_FALSE(r.ok);
  // The message ends with the event log, one indented line per event.
  const std::string log_part =
      "\nEvent log:\n"
      "  p0 invoke  reg_write(1)@obj0 seq=0\n"
      "  == CRASH ==\n"
      "  p0 recover reg_write(1)@obj0\n"
      "  p0 verdict reg_write(1)@obj0 -> 0\n"
      "  p1 invoke  reg_read()@obj0 seq=0\n"
      "  p1 resp    reg_read()@obj0 -> 0\n";
  ASSERT_GT(r.message.size(), log_part.size());
  EXPECT_EQ(r.message.substr(r.message.size() - log_part.size()), log_part);
  EXPECT_EQ(r.message.find("\nEvent log:\n"),
            r.message.size() - log_part.size());
}

TEST(checker, detects_false_fail_claim_when_effect_observed) {
  // Recovery says fail, but another process already read the written value.
  std::vector<hist::event> events{
      ev(hist::event_kind::invoke, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::invoke, 1, mk(opcode::reg_read)),
      ev(hist::event_kind::response, 1, mk(opcode::reg_read), 1),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, mk(opcode::reg_write, 1)),
      ev(hist::event_kind::recover_result, 0, mk(opcode::reg_write, 1),
         k_bottom, hist::recovery_verdict::fail),
  };
  auto r = hist::check_durable_linearizability(events, hist::register_spec(0));
  EXPECT_FALSE(r.ok);
}

// ---- lin_memo fingerprint -------------------------------------------------------

// Two streams that differ in one field of one event must never share a memo
// entry: each of the event's nine fields reaches the fingerprint.
TEST(lin_memo_key, every_event_field_reaches_the_fingerprint) {
  op_desc w = mk(opcode::reg_write, 5);
  w.client_seq = 1;
  op_desc r = mk(opcode::reg_read);
  r.client_seq = 1;
  const std::vector<hist::event> base{
      ev(hist::event_kind::invoke, 0, w),
      ev(hist::event_kind::invoke, 1, r),
      ev(hist::event_kind::response, 1, r, 5),
      ev(hist::event_kind::crash, -1, {}),
      ev(hist::event_kind::recover_begin, 0, w),
      ev(hist::event_kind::recover_result, 0, w, k_ack,
         hist::recovery_verdict::linearized),
  };
  using edit = void (*)(std::vector<hist::event>&);
  const std::vector<std::pair<const char*, edit>> edits = {
      {"kind", [](auto& es) { es[4].kind = hist::event_kind::crash; }},
      {"pid", [](auto& es) { es[3].pid = 7; }},
      {"object", [](auto& es) { es[3].desc.object = 3; }},
      {"code", [](auto& es) { es[3].desc.code = opcode::cas; }},
      {"a", [](auto& es) { es[0].desc.a = 6; }},
      {"b", [](auto& es) { es[3].desc.b = 1; }},
      {"client_seq", [](auto& es) { es[1].desc.client_seq = 2; }},
      {"value", [](auto& es) { es[2].value = 6; }},
      {"verdict",
       [](auto& es) { es[5].verdict = hist::recovery_verdict::fail; }},
  };
  const hist::register_spec sp(0);
  for (const auto& [field, apply] : edits) {
    hist::lin_memo memo;
    hist::check_options opt;
    opt.memo = &memo;
    std::vector<hist::event> changed = base;
    apply(changed);
    hist::check_object_streams({{0, &sp, base}}, opt);
    hist::check_object_streams({{0, &sp, changed}}, opt);
    EXPECT_EQ(memo.misses(), 2u) << field;
    EXPECT_EQ(memo.hits(), 0u) << field;
    hist::check_object_streams({{0, &sp, base}}, opt);
    EXPECT_EQ(memo.hits(), 1u) << field << ": a repeat must hit";
  }
}

}  // namespace
