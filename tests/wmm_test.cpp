// The detect::wmm subsystem: visibility-model naming, the per-process store
// buffer (forwarding, tso/pso drain slots), world-level litmus tests (store
// buffering, store-to-load forwarding, fence drains, quiescence, scripted
// drain points), scripted_scenario v6 (visibility + drain_steps lines, v5
// compat), the 500-seed determinism pin over the historical sc streams, the
// lin_memo model salt, the wmm coverage coordinates, the registry-wide
// tso/pso cleanliness sweep, and the planted store-buffer bug only the tso
// pool finds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "nvm/pcell.hpp"
#include "sim/world.hpp"
#include "wmm/visibility.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using test::fnv_raw;
using test::k_fnv_basis;

// Registry kinds as of static init — the tso/pso cleanliness sweep must not
// pick up the planted-bug kind later tests register.
const std::vector<std::string> g_builtin_kinds =
    api::object_registry::global().kinds();

// ---- visibility naming ------------------------------------------------------

TEST(visibility, names_round_trip) {
  for (wmm::visibility_model m :
       {wmm::visibility_model::sc, wmm::visibility_model::tso,
        wmm::visibility_model::pso}) {
    wmm::visibility_model back{};
    ASSERT_TRUE(wmm::visibility_from_name(wmm::visibility_name(m), back));
    EXPECT_EQ(back, m);
  }
  wmm::visibility_model out = wmm::visibility_model::tso;
  EXPECT_FALSE(wmm::visibility_from_name("relaxed", out));
  EXPECT_FALSE(wmm::visibility_from_name("", out));
  EXPECT_EQ(out, wmm::visibility_model::tso) << "out untouched on failure";
}

// ---- store buffer -----------------------------------------------------------

TEST(store_buffer, buffers_forward_and_expose_drain_slots) {
  nvm::pmem_domain dom;
  nvm::pcell<int> x(0, dom);
  nvm::pcell<int> y(0, dom);
  wmm::store_buffer buf;
  dom.set_active_store_buffer(&buf);
  x.store(1);
  y.store(2);
  x.store(3);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.high_water(), 3u);
  // Newest-match forwarding: the issuing process reads its own x := 3, the
  // globally visible values are still the initial ones.
  EXPECT_EQ(x.load(), 3);
  EXPECT_EQ(y.load(), 2);
  EXPECT_EQ(x.peek(), 0);
  EXPECT_EQ(y.peek(), 0);
  int v = -1;
  EXPECT_TRUE(buf.forward(x, &v, sizeof(v)));
  EXPECT_EQ(v, 3);
  // tso exposes only the FIFO head; pso one slot per distinct buffered cell.
  EXPECT_EQ(buf.slots(wmm::visibility_model::tso), 1u);
  EXPECT_EQ(buf.slots(wmm::visibility_model::pso), 2u);
  dom.set_active_store_buffer(nullptr);

  // pso slot 1 is the second distinct cell in first-occurrence order: y.
  buf.drain_slot(wmm::visibility_model::pso, 1);
  EXPECT_EQ(y.peek(), 2);
  EXPECT_EQ(x.peek(), 0);
  // Same-cell stores still retire FIFO: slot 0 drains x := 1 before x := 3.
  buf.drain_slot(wmm::visibility_model::pso, 0);
  EXPECT_EQ(x.peek(), 1);
  buf.drain_all();
  EXPECT_EQ(x.peek(), 3);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.high_water(), 3u) << "high water survives draining";
}

TEST(store_buffer, discard_drops_stores_and_keeps_high_water) {
  nvm::pmem_domain dom;
  nvm::pcell<int> x(0, dom);
  wmm::store_buffer buf;
  dom.set_active_store_buffer(&buf);
  x.store(9);
  x.store(10);
  dom.set_active_store_buffer(nullptr);
  buf.discard();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(x.peek(), 0) << "discarded stores never happened";
  EXPECT_EQ(buf.high_water(), 2u);
}

// ---- world litmus tests -----------------------------------------------------

sim::world_config tso_world() {
  sim::world_config cfg;
  cfg.visibility = wmm::visibility_model::tso;
  return cfg;
}

// The classic SB litmus test: both processes store then load the other's
// cell. r0 == r1 == 0 is impossible under any interleaving (sc) but is the
// signature tso outcome — both stores sit in their buffers past both loads.
TEST(wmm_world, store_buffering_litmus_reads_both_stale) {
  sim::world w(2, tso_world());
  nvm::pcell<int> x(0, w.domain());
  nvm::pcell<int> y(0, w.domain());
  int r0 = -1;
  int r1 = -1;
  w.submit(0, [&] {
    x.store(1);
    r0 = y.load();
  });
  w.submit(1, [&] {
    y.store(1);
    r1 = x.load();
  });
  w.step(0);  // x := 1 enters p0's buffer
  w.step(1);  // y := 1 enters p1's buffer
  EXPECT_EQ(x.peek(), 0);
  EXPECT_EQ(y.peek(), 0);
  w.step(0);  // p0 reads y from memory
  w.step(1);  // p1 reads x from memory
  EXPECT_EQ(r0, 0);
  EXPECT_EQ(r1, 0);
  // Quiescence: a run over the now-idle world retires both buffers as
  // counted drain steps, converging on the state sc would have reached.
  sim::round_robin_scheduler rr;
  sim::run_report rep = w.run(rr);
  EXPECT_EQ(x.peek(), 1);
  EXPECT_EQ(y.peek(), 1);
  EXPECT_EQ(rep.drain_steps, 2u);
  EXPECT_EQ(rep.max_pending_stores, 1u);
}

TEST(wmm_world, own_buffered_store_forwards_before_draining) {
  sim::world w(1, tso_world());
  nvm::pcell<int> x(0, w.domain());
  int r = -1;
  w.submit(0, [&] {
    x.store(7);
    r = x.load();
  });
  w.step(0);
  EXPECT_EQ(x.peek(), 0);
  w.step(0);
  EXPECT_EQ(r, 7) << "store-to-load forwarding";
  EXPECT_EQ(x.peek(), 0) << "forwarding does not drain";
}

// Atomic RMWs are fences: the low-level step API drains the issuing
// process's whole buffer before granting the access.
TEST(wmm_world, rmw_fences_drain_the_buffer_first) {
  sim::world w(1, tso_world());
  nvm::pcell<int> x(0, w.domain());
  nvm::pcell<int> y(0, w.domain());
  w.submit(0, [&] {
    x.store(3);
    int e = 0;
    y.compare_exchange(e, 1);
  });
  w.step(0);
  EXPECT_EQ(x.peek(), 0);
  ASSERT_EQ(w.pending_access(0), nvm::access::shared_cas);
  w.step(0);
  EXPECT_EQ(x.peek(), 3) << "the CAS must not execute past the buffer";
  EXPECT_EQ(y.peek(), 1);
}

// A scripted drain point publishes every buffer as one step: with the point,
// a reader scheduled right after the writer sees the store; without it, the
// same schedule reads stale.
TEST(wmm_world, scripted_drain_point_publishes_buffered_stores) {
  for (bool with_point : {false, true}) {
    sim::world_config cfg = tso_world();
    if (with_point) cfg.drain_points = {1};
    sim::world w(2, cfg);
    nvm::pcell<int> x(0, w.domain());
    int r1 = -1;
    w.submit(0, [&] { x.store(1); });
    w.submit(1, [&] { r1 = x.load(); });
    sim::scripted_scheduler sched({0});
    sim::run_report rep = w.run(sched);
    EXPECT_EQ(r1, with_point ? 1 : 0) << "with_point=" << with_point;
    EXPECT_GE(rep.drain_steps, 1u);
  }
}

TEST(wmm_world, crash_discards_buffered_stores) {
  sim::world w(1, tso_world());
  nvm::pcell<int> x(0, w.domain());
  w.submit(0, [&] {
    x.store(5);
    x.load();  // park at a second access so the crash interrupts the task
  });
  w.step(0);
  EXPECT_EQ(x.peek(), 0);
  w.crash();
  sim::round_robin_scheduler rr;
  w.run(rr);  // quiescence has nothing to retire
  EXPECT_EQ(x.peek(), 0) << "a crashed store buffer never drains";
}

// ---- executor gating --------------------------------------------------------

TEST(wmm_executor, threads_backend_rejects_relaxed_visibility) {
  api::exec_policy p;
  p.backend = api::exec_backend::threads;
  p.wcfg.visibility = wmm::visibility_model::tso;
  EXPECT_THROW(api::make_executor(p), std::invalid_argument);
  p.wcfg.visibility = wmm::visibility_model::pso;
  EXPECT_THROW(api::make_executor(p), std::invalid_argument);
  p.wcfg.visibility = wmm::visibility_model::sc;
  EXPECT_NO_THROW(api::make_executor(p));
}

// ---- scripted_scenario v6 ---------------------------------------------------

TEST(replay_v6, visibility_and_drain_steps_round_trip) {
  api::scripted_scenario s = fuzz::generate(21, "counter");
  s.visibility = wmm::visibility_model::tso;
  s.drain_steps = {3, 9};
  const std::string text = api::dump(s);
  EXPECT_NE(text.find("# detect scripted_scenario v6"), std::string::npos);
  EXPECT_NE(text.find("visibility tso"), std::string::npos) << text;
  EXPECT_NE(text.find("drain_steps 3 9"), std::string::npos) << text;
  api::scripted_scenario rt = api::parse_scenario(text);
  EXPECT_EQ(rt.visibility, wmm::visibility_model::tso);
  EXPECT_EQ(rt.drain_steps, s.drain_steps);
  EXPECT_EQ(api::dump(rt), text);
  api::scripted_outcome a = api::replay(s);
  api::scripted_outcome b = api::replay(rt);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_EQ(a.report.steps, b.report.steps);
  EXPECT_TRUE(a.check.ok) << a.check.message;
}

// v5 dumps carry no visibility/drain lines and parse as sc — exactly the
// interleaving semantics those replays always had — then replay
// byte-identically to their v6 re-dump.
TEST(replay_v6, v5_dumps_parse_as_sc_and_replay_byte_identically) {
  const std::string v5_text =
      "# detect scripted_scenario v5\n"
      "object 0 cas 0 64\n"
      "object 1 reg 0 64\n"
      "procs 2\n"
      "policy skip\n"
      "shared_cache 0\n"
      "sched_seed 77\n"
      "sched uniform_random\n"
      "persist strict\n"
      "backend sharded\n"
      "shards 2\n"
      "placement hash\n"
      "crash_steps\n"
      "script 0 cas:0:1 reg_write:3:0@1\n"
      "script 1 cas_read:0:0 reg_read:0:0@1\n";
  api::scripted_scenario s = api::parse_scenario(v5_text);
  EXPECT_EQ(s.visibility, wmm::visibility_model::sc);
  EXPECT_TRUE(s.drain_steps.empty());
  api::scripted_outcome a = api::replay(s);
  const std::string v6_text = api::dump(s);
  EXPECT_NE(v6_text.find("visibility sc"), std::string::npos) << v6_text;
  api::scripted_scenario rt = api::parse_scenario(v6_text);
  api::scripted_outcome b = api::replay(rt);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_EQ(a.report.steps, b.report.steps);
  EXPECT_TRUE(a.check.ok);
}

TEST(replay_v6, parse_rejects_unknown_visibility_models) {
  const std::string head =
      "object 0 reg 0 64\n"
      "procs 1\n"
      "script 0 reg_read:0:0\n";
  EXPECT_THROW(api::parse_scenario("visibility weak\n" + head),
               std::invalid_argument);
  EXPECT_THROW(api::parse_scenario("visibility\n" + head),
               std::invalid_argument);
}

// ---- determinism pin --------------------------------------------------------

// Strip the header comment and the v6 lines, leaving exactly the v5 payload
// the pre-wmm golden hashes were captured over.
std::string filter_dump(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("# ", 0) == 0) continue;
    if (line.rfind("visibility ", 0) == 0) continue;
    if (line.rfind("drain_steps", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// The wmm acceptance pin: the historical seed streams are untouched. 500
// schedule- and persistency-mixed scenarios (the check_parallel corpus
// recipe) must generate, dump, replay, and check to the exact pre-wmm golden
// hash once the v6 lines are filtered out — the visibility draw consumes rng
// only when the pool is non-default, and sc replays take the buffer-free
// fast path, so nothing downstream may shift by a single byte.
TEST(wmm_determinism, sc_seed_streams_match_the_pre_wmm_golden_hashes) {
  fuzz::gen_config cfg;
  cfg.max_procs = 3;
  cfg.max_ops = 6;
  cfg.max_shards = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  const std::vector<std::string> kinds = {"reg",   "cas",     "counter",
                                          "queue", "stack",   "swap",
                                          "tas",   "max_reg", "lock"};
  std::uint64_t h = k_fnv_basis;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    EXPECT_EQ(s.visibility, wmm::visibility_model::sc);
    EXPECT_TRUE(s.drain_steps.empty());
    h = fnv_raw(h, filter_dump(api::dump(s)));
    api::scripted_outcome out = api::replay(s);
    h = fnv_raw(h, out.log_text);
    h = fnv_raw(h, out.check.message);
    h = fnv_raw(h, std::to_string(out.report.steps));
  }
  EXPECT_EQ(h, 18241611561182990775ULL);

  std::uint64_t hm = k_fnv_basis;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    std::uint64_t rng = seed * 7919 + 1;
    api::scripted_scenario m = fuzz::mutate(s, rng, cfg);
    hm = fnv_raw(hm, filter_dump(api::dump(m)));
  }
  EXPECT_EQ(hm, 4661788257893819786ULL);
}

// ---- generator pools --------------------------------------------------------

TEST(scenario_gen_wmm, mixed_pool_reaches_every_visibility_model) {
  fuzz::gen_config cfg;
  cfg.visibility_pool = {"sc", "tso", "pso"};
  std::set<wmm::visibility_model> models;
  bool saw_drains = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "counter", cfg);
    EXPECT_EQ(api::dump(s), api::dump(fuzz::generate(seed, "counter", cfg)));
    models.insert(s.visibility);
    if (s.visibility == wmm::visibility_model::sc) {
      EXPECT_TRUE(s.drain_steps.empty()) << "sc scenarios carry no drains";
    } else {
      EXPECT_LE(s.drain_steps.size(), 3u);
      saw_drains = saw_drains || !s.drain_steps.empty();
    }
  }
  EXPECT_EQ(models.size(), 3u);
  EXPECT_TRUE(saw_drains) << "non-sc draws must materialize drain points";
}

// ---- lin_memo model salt ----------------------------------------------------

// A single-process scenario produces byte-identical per-object event streams
// under sc and tso (its own forwarding hides the buffer; quiescence drains
// at run end), which is exactly the laundering hazard: without the model
// salt, the tso check would be satisfied from the recorded sc verdict.
TEST(lin_memo_salt, model_pairs_never_share_memo_entries) {
  api::scripted_scenario s;
  s.objects.push_back({0, "reg", {}});
  s.nprocs = 1;
  s.scripts[0] = {{0, hist::opcode::reg_write, 5, 0, 0},
                  {0, hist::opcode::reg_read, 0, 0, 0}};

  hist::lin_memo memo;
  hist::check_options opt;
  opt.memo = &memo;
  EXPECT_TRUE(api::replay(s, opt).check.ok);
  const std::size_t m1 = memo.misses();
  EXPECT_GT(m1, 0u);
  EXPECT_EQ(memo.hits(), 0u);

  // The same model pair replays straight out of the memo ...
  EXPECT_TRUE(api::replay(s, opt).check.ok);
  EXPECT_EQ(memo.misses(), m1);
  const std::size_t h1 = memo.hits();
  EXPECT_GT(h1, 0u);

  // ... but the identical event stream under tso must compute fresh.
  api::scripted_scenario t = s;
  t.visibility = wmm::visibility_model::tso;
  api::scripted_outcome tso1 = api::replay(t, opt);
  EXPECT_TRUE(tso1.check.ok) << tso1.check.message;
  EXPECT_EQ(memo.hits(), h1) << "tso lookups must not hit sc entries";
  EXPECT_GT(memo.misses(), m1);

  // The tso entries themselves are reusable under tso.
  const std::size_t m2 = memo.misses();
  EXPECT_TRUE(api::replay(t, opt).check.ok);
  EXPECT_EQ(memo.misses(), m2);
  EXPECT_GT(memo.hits(), h1);
}

// ---- coverage coordinates ---------------------------------------------------

TEST(coverage_wmm, bucket_keys_carry_visibility_and_pending_depth) {
  api::scripted_scenario s = fuzz::generate(3, "counter");
  api::scripted_outcome out = api::replay(s);
  const std::string sc_key = fuzz::bucket_of(s, out).key();
  EXPECT_NE(sc_key.find("|vis=sc"), std::string::npos) << sc_key;
  EXPECT_NE(sc_key.find("|pend=0"), std::string::npos) << sc_key;

  api::scripted_scenario t = s;
  t.visibility = wmm::visibility_model::tso;
  api::scripted_outcome tout = api::replay(t);
  const fuzz::bucket_signature sig = fuzz::bucket_of(t, tout);
  EXPECT_NE(sig.key().find("|vis=tso"), std::string::npos) << sig.key();
  EXPECT_EQ(sig.pending_bucket,
            std::min<std::uint64_t>(tout.report.max_pending_stores, 3));
}

// ---- the planted store-buffer bug -------------------------------------------

// A counter whose mutual exclusion is correct under interleaving semantics
// but breaks under delayed store visibility: ctr_add takes an intent-flag
// lock (publish own flag with a plain store, then check everyone else's),
// reads the total, and writes back total + delta, returning the old total.
// The flag protocol's safety argument is a pure interleaving cycle — if two
// processes were both inside, each one's flag check would have to precede
// the other's flag set, which is impossible under sc. Under tso/pso both
// sets can sit in store buffers while both checks read 0 from memory, so
// both processes enter, read the same old total, and the two adds collapse
// into one: two ctr_adds return the same old value, which no sequential
// counter permits.
struct tso_reg_counter final : core::detectable_object {
  tso_reg_counter(int nprocs, hist::value_t init, nvm::pmem_domain& dom)
      : count_(init, dom) {
    intent_.reserve(static_cast<std::size_t>(nprocs));
    for (int p = 0; p < nprocs; ++p) {
      intent_.push_back(std::make_unique<nvm::pcell<std::uint8_t>>(0, dom));
    }
  }

  hist::value_t invoke(int pid, const hist::op_desc& op) override {
    switch (op.code) {
      case hist::opcode::ctr_read:
        return count_.load();
      case hist::opcode::ctr_add: {
        acquire(pid);
        const hist::value_t old = count_.load();
        count_.store(old + op.a);
        intent_[static_cast<std::size_t>(pid)]->store(0);  // release
        return old;
      }
      default:
        throw std::invalid_argument("tso_reg_counter: unsupported opcode");
    }
  }
  core::recovery_result recover(int, const hist::op_desc&) override {
    return core::recovery_result::failed();
  }
  bool wants_aux_reset() const override { return false; }

 private:
  void acquire(int pid) {
    for (;;) {
      intent_[static_cast<std::size_t>(pid)]->store(1);
      bool alone = true;
      for (std::size_t q = 0; q < intent_.size(); ++q) {
        if (static_cast<int>(q) != pid && intent_[q]->load() != 0) {
          alone = false;
          break;
        }
      }
      if (alone) return;
      intent_[static_cast<std::size_t>(pid)]->store(0);  // back off, retry
    }
  }

  nvm::pcell<hist::value_t> count_;
  std::vector<std::unique_ptr<nvm::pcell<std::uint8_t>>> intent_;
};

void register_tso_counter_once() {
  auto& reg = api::object_registry::global();
  if (reg.contains("test_tso_reg")) return;
  api::kind_info info;
  info.name = "test_tso_reg";
  info.family = api::op_family::counter;
  info.detectable = false;
  info.make = [](const api::object_env& e, const api::object_params& p) {
    api::created_object c;
    c.owned.push_back(
        std::make_unique<tso_reg_counter>(e.nprocs, p.init, e.domain));
    return c;
  };
  info.make_spec = [](const api::object_params& p) {
    return api::object_registry::global().make_spec("counter", p);
  };
  reg.add(std::move(info));
}

fuzz::gen_config tso_pool_cfg() {
  fuzz::gen_config cfg;
  cfg.visibility_pool = {"tso"};
  return cfg;
}

bool tso_bug_fires(const api::scripted_scenario& s) {
  return !api::replay(s).check.ok;
}

// Pinned budgets, calibrated by scanning seeds 1..200: the sc pool never
// fires the bug; the tso pool — the identical scenarios, the visibility
// draw being the generator's final rng consumption — first fires at the
// seed pinned below.
constexpr std::uint64_t k_tso_seed_budget = 200;
constexpr std::uint64_t k_first_tso_seed = 34;

// The wmm acceptance bar: within the same pinned seed budget, the tso pool
// finds the planted store-buffer bug and the sc pool misses it — no
// interleaving produces the doubled old value, only delayed drains do.
TEST(planted_tso_bug, tso_pool_finds_it_where_sc_misses) {
  register_tso_counter_once();
  std::uint64_t first_tso = 0;
  for (std::uint64_t seed = 1; seed <= k_tso_seed_budget; ++seed) {
    api::scripted_scenario sc = fuzz::generate(seed, "test_tso_reg");
    EXPECT_EQ(sc.visibility, wmm::visibility_model::sc);
    EXPECT_FALSE(tso_bug_fires(sc))
        << "the sc pool found the planted tso bug at seed " << seed;
    if (first_tso == 0) {
      api::scripted_scenario t =
          fuzz::generate(seed, "test_tso_reg", tso_pool_cfg());
      EXPECT_EQ(t.visibility, wmm::visibility_model::tso);
      if (tso_bug_fires(t)) first_tso = seed;
    }
  }
  EXPECT_EQ(first_tso, k_first_tso_seed)
      << "the tso pool must find the planted bug within the pinned budget";
}

// ... and the shrinker keeps the failure tso (the sc canonicalization
// replays clean, so pass 0 rejects it) while cutting the scripted drain
// points down to at most two.
TEST(planted_tso_bug, shrinker_keeps_tso_and_minimizes_drains) {
  register_tso_counter_once();
  api::scripted_scenario p =
      fuzz::generate(k_first_tso_seed, "test_tso_reg", tso_pool_cfg());
  ASSERT_TRUE(tso_bug_fires(p));
  api::scripted_scenario shrunk = fuzz::shrink(p, tso_bug_fires);
  EXPECT_TRUE(tso_bug_fires(shrunk));
  EXPECT_EQ(shrunk.visibility, wmm::visibility_model::tso)
      << "the bug needs delayed drains; canonicalizing to sc must fail";
  EXPECT_LE(shrunk.drain_steps.size(), 2u);
}

// Differ failure messages name every model axis (built from the axis
// table), so a store-buffer-only divergence reads as one.
TEST(planted_tso_bug, differ_failure_names_every_model_axis) {
  register_tso_counter_once();
  api::scripted_scenario p =
      fuzz::generate(k_first_tso_seed, "test_tso_reg", tso_pool_cfg());
  p.drain_steps = {100000};  // past the run's end: named, never reached
  const fuzz::diff_report r = fuzz::diff_against(p, "counter");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find(" visibility=tso"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find(" sched=uniform_random"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find(" persist=strict"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find(" drain_steps=100000"), std::string::npos)
      << r.message;
}

// ---- registry-wide cleanliness ----------------------------------------------

// Every real kind stays clean under tso and pso: the runtime's response
// logging is a fence (private_store), so an operation's buffered stores
// drain before it completes — completed-operation visibility violations are
// structurally impossible, and only deliberately intra-op-racy objects like
// tso_reg_counter above can fail.
TEST(wmm_registry, builtin_kinds_stay_clean_under_tso_and_pso) {
  for (const char* model : {"tso", "pso"}) {
    fuzz::gen_config cfg;
    cfg.visibility_pool = {model};
    for (const std::string& kind : g_builtin_kinds) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        api::scripted_scenario s = fuzz::generate(seed, kind, cfg);
        EXPECT_EQ(wmm::visibility_name(s.visibility), std::string(model));
        api::scripted_outcome out = api::replay(s);
        EXPECT_TRUE(out.check.ok) << model << " " << kind << " seed " << seed
                                  << ": " << out.check.message;
      }
    }
  }
}

// ---- schedule description ---------------------------------------------------

TEST(wmm_describe, schedule_description_names_the_visibility_model) {
  auto h = api::harness::builder()
               .procs(2)
               .visibility(wmm::visibility_model::tso)
               .build();
  api::counter c = h.add_counter();
  h.script(0, {c.add(1)});
  h.script(1, {c.add(1)});
  h.run();
  const std::string d = h.world().describe_schedule();
  EXPECT_NE(d.find("visibility tso"), std::string::npos) << d;
  EXPECT_NE(d.find("pending stores"), std::string::npos) << d;
  EXPECT_EQ(d.find("(no scheduler)"), std::string::npos) << d;
}

TEST(wmm_describe, step_limit_note_names_the_visibility_model) {
  sched::sched_policy pct;
  pct.strat = sched::strategy::pct;
  pct.pct_points = {2};
  auto h = api::harness::builder()
               .procs(2)
               .seed(11)
               .schedule(pct)
               .visibility(wmm::visibility_model::tso)
               .max_steps(4)
               .build();
  api::counter c = h.add_counter();
  h.script(0, {c.add(1), c.read()});
  h.script(1, {c.add(1)});
  sim::run_report r = h.run();
  ASSERT_TRUE(r.hit_step_limit);
  EXPECT_NE(r.limit_note.find("visibility tso"), std::string::npos)
      << r.limit_note;
  EXPECT_NE(r.limit_note.find("pending stores"), std::string::npos)
      << r.limit_note;
}

}  // namespace
