// Unit tests for the emulated persistent memory layer: cell semantics, the
// two cache models, crash reversion, persist accounting, and the node pool.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "nvm/pcell.hpp"
#include "nvm/pmem.hpp"
#include "nvm/pool.hpp"
#include "nvm/pvar.hpp"

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
