// Unit tests for the emulated persistent memory layer: cell semantics, the
// two cache models, crash reversion, persist accounting, and the node pool.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "core/detectable_cas.hpp"
#include "nvm/pcell.hpp"
#include "nvm/pmem.hpp"
#include "nvm/pool.hpp"
#include "nvm/pvar.hpp"
#include "sim/world.hpp"

namespace {

using namespace detect;

TEST(pcell, load_store_roundtrip) {
  nvm::pmem_domain dom;
  nvm::pcell<int> c(7, dom);
  EXPECT_EQ(c.load(), 7);
  c.store(42);
  EXPECT_EQ(c.load(), 42);
}

TEST(pcell, compare_exchange_success_and_failure) {
  nvm::pmem_domain dom;
  nvm::pcell<int> c(1, dom);
  int expect = 1;
  EXPECT_TRUE(c.compare_exchange(expect, 2));
  EXPECT_EQ(c.load(), 2);
  expect = 1;  // stale
  EXPECT_FALSE(c.compare_exchange(expect, 3));
  EXPECT_EQ(expect, 2) << "failed CAS must refresh expected";
  EXPECT_EQ(c.load(), 2);
}

TEST(pcell, exchange_returns_old) {
  nvm::pmem_domain dom;
  nvm::pcell<int> c(5, dom);
  EXPECT_EQ(c.exchange(9), 5);
  EXPECT_EQ(c.load(), 9);
}

TEST(pcell, private_cache_survives_crash) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::private_cache);
  nvm::pcell<int> c(0, dom);
  c.store(123);
  dom.crash_reset();
  EXPECT_EQ(c.load(), 123) << "private-cache stores persist immediately";
}

TEST(pcell, shared_cache_unflushed_store_lost_on_crash) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> c(1, dom);
  c.store(2);  // cached, not persisted
  dom.crash_reset();
  EXPECT_EQ(c.load(), 1) << "unflushed store must revert";
}

TEST(pcell, shared_cache_flushed_store_survives_crash) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> c(1, dom);
  c.store(2);
  c.flush();
  dom.crash_reset();
  EXPECT_EQ(c.load(), 2);
}

TEST(pcell, shared_cache_auto_persist_behaves_like_private) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::shared_cache);
  dom.set_auto_persist(true);
  nvm::pcell<int> c(0, dom);
  c.store(7);
  dom.crash_reset();
  EXPECT_EQ(c.load(), 7) << "the Izraelevitz transform persists every store";
}

TEST(pcell, auto_persist_counts_flushes_and_fences) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::shared_cache);
  dom.set_auto_persist(true);
  nvm::pcell<int> c(0, dom);
  dom.counters().reset();
  c.store(1);
  c.load();
  auto s = dom.counters().snapshot();
  EXPECT_EQ(s.shared_stores, 1u);
  EXPECT_EQ(s.shared_loads, 1u);
  EXPECT_EQ(s.flushes, 2u) << "store flush + read-side flush";
  EXPECT_EQ(s.fences, 2u);
}

TEST(pcell, private_cache_counts_no_persist_instructions) {
  nvm::pmem_domain dom;
  nvm::pcell<int> c(0, dom);
  dom.counters().reset();
  c.store(1);
  c.load();
  auto s = dom.counters().snapshot();
  EXPECT_EQ(s.flushes, 0u);
  EXPECT_EQ(s.fences, 0u);
}

TEST(pcell, crash_counts) {
  nvm::pmem_domain dom;
  dom.crash_reset();
  dom.crash_reset();
  EXPECT_EQ(dom.counters().snapshot().crashes, 2u);
}

struct wide {
  std::int64_t a;
  std::uint64_t b;
  friend bool operator==(const wide&, const wide&) = default;
};

TEST(pcell, sixteen_byte_cells_work) {
  nvm::pmem_domain dom;
  nvm::pcell<wide> c(wide{1, 2}, dom);
  wide expect{1, 2};
  EXPECT_TRUE(c.compare_exchange(expect, wide{3, 4}));
  EXPECT_EQ(c.load(), (wide{3, 4}));
}

// What one cell shows through every operation, in a shared-cache domain
// built `mode`: the values its reads, CAS and exchange return, every CAS
// outcome and crash loss, and the domain's instruction counts.
template <typename T>
struct cell_trace {
  std::vector<T> seen;
  std::vector<bool> flags;
  std::vector<std::uint64_t> counts;
};

template <typename T>
cell_trace<T> trace_cell(nvm::stats::sharing mode, T v0, T v1, T v2, T v3) {
  cell_trace<T> t;
  nvm::pmem_domain dom(mode);
  dom.set_model(nvm::cache_model::shared_cache);
  nvm::pcell<T> c(v0, dom);
  t.seen.push_back(c.load());  // v0
  c.store(v1);
  t.seen.push_back(c.load());            // v1
  t.seen.push_back(c.peek_persisted());  // v0: not flushed
  T expected = v1;
  t.flags.push_back(c.compare_exchange(expected, v2));  // true
  t.seen.push_back(expected);                           // v1, untouched
  expected = v0;
  t.flags.push_back(c.compare_exchange(expected, v3));  // false
  t.seen.push_back(expected);                           // v2, refreshed
  t.seen.push_back(c.exchange(v3));                     // v2
  c.flush();
  t.seen.push_back(c.peek_persisted());  // v3
  c.store(v0);
  dom.crash_reset();
  t.seen.push_back(c.load());  // v3: the unflushed v0 is reverted
  // Buffered journal: a store is lost unless an epoch boundary drains it.
  dom.set_persist_model(nvm::persist_model::buffered);
  c.store(v1);
  dom.crash_reset();
  t.flags.push_back(dom.last_crash_lost());  // true
  t.seen.push_back(c.load());                // v3
  c.store(v2);
  dom.epoch_boundary();
  dom.crash_reset();
  t.flags.push_back(dom.last_crash_lost());  // false
  t.seen.push_back(c.load());                // v2
  // Image round trip: cur and persisted travel apart, and the loaded cell
  // joins the journal, so a crash reverts it.
  c.store(v0);
  nvm::pcell<T> d(v3, dom);
  std::vector<nvm::persistent_base*> from{&c};
  std::vector<nvm::persistent_base*> to{&d};
  nvm::load_image(to, nvm::save_image(from));
  t.seen.push_back(d.peek());            // v0
  t.seen.push_back(d.peek_persisted());  // v2
  dom.crash_reset();
  t.seen.push_back(d.load());  // v2
  const nvm::stats_snapshot s = dom.counters().snapshot();
  t.counts = {s.shared_loads, s.shared_stores, s.shared_cas,
              s.shared_exchanges, s.flushes, s.fences, s.crashes};
  return t;
}

template <typename T>
void expect_same_cell_in_both_modes(T v0, T v1, T v2, T v3) {
  const cell_trace<T> confined =
      trace_cell(nvm::stats::sharing::confined, v0, v1, v2, v3);
  const cell_trace<T> shared =
      trace_cell(nvm::stats::sharing::shared, v0, v1, v2, v3);
  const std::vector<T> seen{v0, v1, v0, v1, v2, v2, v3, v3,
                            v3, v2, v0, v2, v2};
  EXPECT_EQ(confined.seen, seen);
  EXPECT_EQ(shared.seen, seen);
  const std::vector<bool> flags{true, false, true, false};
  EXPECT_EQ(confined.flags, flags);
  EXPECT_EQ(shared.flags, flags);
  const std::vector<std::uint64_t> counts{6, 5, 2, 1, 1, 0, 4};
  EXPECT_EQ(confined.counts, counts);
  EXPECT_EQ(shared.counts, counts);
}

// A confined domain's cells are plain memory and a shared domain's are
// seq_cst atomics; either way a cell must behave the same, for a word and
// for Algorithm 2's 16-byte <value, vec> word.
TEST(pcell, confined_and_shared_cells_behave_identically) {
  expect_same_cell_in_both_modes<std::uint64_t>(7, 11, 13, 17);
  expect_same_cell_in_both_modes<core::cas_word>({1, 10}, {2, 20}, {3, 30},
                                                 {4, 40});
}

// Every simulated access goes through the plain-memory path: a world's
// domain is confined.
TEST(pcell, a_world_domain_is_confined) {
  sim::world w(2);
  EXPECT_TRUE(w.domain().confined());
  EXPECT_FALSE(nvm::pmem_domain::global().confined());
  EXPECT_FALSE(nvm::pmem_domain().confined());
}

TEST(pvar, store_load_and_crash_semantics) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::shared_cache);
  nvm::pvar<int> v(10, dom);
  v.store(20);
  dom.crash_reset();
  EXPECT_EQ(v.load(), 10) << "unflushed private store lost in shared-cache";
  v.store(30);
  v.flush();
  dom.crash_reset();
  EXPECT_EQ(v.load(), 30);
}

TEST(pvar, struct_payload) {
  struct rd {
    std::uint8_t a;
    std::uint64_t b;
  };
  nvm::pmem_domain dom;
  nvm::pvar<rd> v(rd{0, 0}, dom);
  v.store(rd{3, 99});
  EXPECT_EQ(v.load().a, 3);
  EXPECT_EQ(v.load().b, 99u);
}

TEST(pmem_domain, persist_all_checkpoints_everything) {
  nvm::pmem_domain dom;
  dom.set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> a(0, dom);
  nvm::pcell<int> b(0, dom);
  a.store(1);
  b.store(2);
  dom.persist_all();
  dom.crash_reset();
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(pmem_domain, detach_on_destruction) {
  nvm::pmem_domain dom;
  {
    nvm::pcell<int> tmp(5, dom);
    tmp.store(6);
  }
  dom.crash_reset();  // must not touch the destroyed cell
  nvm::pcell<int> again(8, dom);
  EXPECT_EQ(again.load(), 8);
}

// E1 and run_report::nvm_cells/nvm_bytes read a domain's footprint
// counters. A confined domain (a sim::world's) updates them without the
// mutex or a locked instruction; for every registry kind they must read
// what a shared domain reads after construction, after a migration's
// extract (image saved, object destroyed) and adopt (rebuilt, image loaded),
// and after teardown.
TEST(pmem_domain, confined_and_shared_footprints_agree_for_every_kind) {
  const api::object_registry& reg = api::object_registry::global();
  using reading = std::pair<std::uint64_t, std::uint64_t>;
  const auto footprints = [&](const std::string& kind,
                              nvm::stats::sharing mode) {
    nvm::pmem_domain dom(mode);
    std::vector<reading> out;
    const auto read = [&] {
      out.emplace_back(dom.cells_attached(), dom.bytes_attached());
    };
    {
      core::announcement_board board(3, dom);
      read();
      const api::object_env env{3, board, dom};
      std::vector<nvm::persistent_base*> cells;
      api::created_object obj;
      {
        nvm::attach_recording rec(dom, cells);
        obj = reg.create(kind, env);
      }
      read();
      const nvm::pmem_image image = nvm::save_image(cells);
      obj = {};
      read();
      cells.clear();
      {
        nvm::attach_recording rec(dom, cells);
        obj = reg.create(kind, env);
      }
      nvm::load_image(cells, image);
      read();
    }
    read();
    return out;
  };
  for (const std::string& kind : reg.kinds()) {
    const std::vector<reading> confined =
        footprints(kind, nvm::stats::sharing::confined);
    EXPECT_EQ(confined, footprints(kind, nvm::stats::sharing::shared)) << kind;
    ASSERT_EQ(confined.size(), 5u);
    EXPECT_GT(confined[1].first, confined[0].first) << kind << " attaches";
    EXPECT_EQ(confined[2], confined[0]) << kind << " extracted";
    EXPECT_EQ(confined[3], confined[1]) << kind << " adopted";
    EXPECT_EQ(confined[4], reading(0, 0)) << kind << " torn down";
  }
}

TEST(pmem_pool, allocate_and_access) {
  nvm::pmem_domain dom;
  struct node {
    explicit node(nvm::pmem_domain& d) : v(0, d) {}
    nvm::pcell<int> v;
  };
  nvm::pmem_pool<node> pool(4, dom);
  std::uint32_t a = pool.allocate();
  std::uint32_t b = pool.allocate();
  EXPECT_NE(a, b);
  pool.at(a).v.store(11);
  pool.at(b).v.store(22);
  EXPECT_EQ(pool.at(a).v.load(), 11);
  EXPECT_EQ(pool.at(b).v.load(), 22);
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(pmem_pool, exhaustion_throws) {
  nvm::pmem_domain dom;
  struct node {
    explicit node(nvm::pmem_domain& d) : v(0, d) {}
    nvm::pcell<int> v;
  };
  nvm::pmem_pool<node> pool(1, dom);
  pool.allocate();
  EXPECT_THROW(pool.allocate(), std::runtime_error);
}

TEST(pmem_pool, frontier_survives_private_cache_crash) {
  nvm::pmem_domain dom;
  struct node {
    explicit node(nvm::pmem_domain& d) : v(0, d) {}
    nvm::pcell<int> v;
  };
  nvm::pmem_pool<node> pool(8, dom);
  pool.allocate();
  pool.allocate();
  dom.crash_reset();
  EXPECT_EQ(pool.allocated(), 2u) << "allocation frontier is persistent";
}

// The pool builds its nodes in one block, in index order after its
// frontier: a cell group records them in that order.
TEST(pmem_pool, nodes_attach_in_index_order_after_the_frontier) {
  nvm::pmem_domain dom;
  struct node {
    explicit node(nvm::pmem_domain& d) : v(0, d) {}
    nvm::pcell<int> v;
  };
  std::vector<nvm::persistent_base*> cells;
  {
    nvm::attach_recording rec(dom, cells);
    nvm::pmem_pool<node> pool(3, dom);
    ASSERT_EQ(cells.size(), 4u);
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(cells[1 + i], &pool.at(i).v) << i;
    }
    EXPECT_EQ(pool.capacity(), 3u);
    EXPECT_THROW(pool.at(3), std::out_of_range);
  }
  EXPECT_EQ(dom.cells_attached(), 0u);
}

// A node that throws mid-build leaves no cell attached and nothing leaked.
TEST(pmem_pool, a_throwing_node_unwinds_the_partial_build) {
  nvm::pmem_domain dom;
  static int built = 0;
  struct node {
    explicit node(nvm::pmem_domain& d) : v(0, d) {
      if (++built == 3) throw std::runtime_error("node 2 fails");
    }
    nvm::pcell<int> v;
  };
  built = 0;
  EXPECT_THROW(nvm::pmem_pool<node>(5, dom), std::runtime_error);
  EXPECT_EQ(built, 3);
  EXPECT_EQ(dom.cells_attached(), 0u);
  EXPECT_EQ(dom.bytes_attached(), 0u);
}

TEST(stats, snapshot_subtraction) {
  nvm::stats s;
  s.add_shared_load();
  auto before = s.snapshot();
  s.add_shared_load();
  s.add_flush();
  auto delta = s.snapshot() - before;
  EXPECT_EQ(delta.shared_loads, 1u);
  EXPECT_EQ(delta.flushes, 1u);
}

}  // namespace
