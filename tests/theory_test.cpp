// Theory harness tests: Theorem 1 configuration counting, Definition 3
// certificates (Lemmas 3-8), and the Theorem 2 Figure-2 schedule outcomes.
#include <gtest/gtest.h>

#include "theory/aux_necessity.hpp"
#include "theory/cas_model.hpp"
#include "theory/perturbing.hpp"
#include "theory/rw_model.hpp"

namespace {

using namespace detect;
using theory::abstract_op;

// ---- Theorem 1 / E2 ---------------------------------------------------------

TEST(cas_model, bound_helper) {
  EXPECT_EQ(theory::theorem1_bound(1), 1u);
  EXPECT_EQ(theory::theorem1_bound(4), 15u);
  EXPECT_EQ(theory::theorem1_bound(10), 1023u);
}

TEST(cas_model, bfs_meets_lower_bound_small_n) {
  for (int n = 1; n <= 2; ++n) {
    auto c = theory::bfs_configurations(n, n + 1);
    EXPECT_TRUE(c.complete) << "N=" << n;
    EXPECT_GE(c.shared_configs, theory::theorem1_bound(n)) << "N=" << n;
    EXPECT_GE(c.total_configs, c.shared_configs);
  }
}

TEST(cas_model, bfs_shared_count_matches_quiescent_analysis) {
  // The full model and the quiescent-graph abstraction must agree on the set
  // of reachable shared states for small N (same operation universe).
  for (int n = 1; n <= 2; ++n) {
    auto full = theory::bfs_configurations(n, n + 1);
    auto quiescent = theory::quiescent_reachability(n, n + 1);
    ASSERT_TRUE(full.complete);
    EXPECT_EQ(full.shared_configs, quiescent.shared_configs) << "N=" << n;
  }
}

TEST(cas_model, quiescent_reachability_is_value_times_vectors) {
  for (int n : {1, 2, 4, 8, 12}) {
    auto c = theory::quiescent_reachability(n, n + 1);
    EXPECT_EQ(c.shared_configs,
              static_cast<std::uint64_t>(n + 1) * (std::uint64_t{1} << n))
        << "N=" << n;
    EXPECT_GE(c.shared_configs, theory::theorem1_bound(n));
  }
}

TEST(cas_model, gray_code_walk_witnesses_the_bound) {
  for (int n : {1, 2, 4, 6, 10, 16}) {
    std::uint64_t visited = theory::gray_code_walk(n, n + 1);
    EXPECT_GE(visited, theory::theorem1_bound(n)) << "N=" << n;
  }
}

// ---- Algorithm 1 model / E9 ---------------------------------------------------

TEST(rw_model, full_bfs_covers_quiescent_states_for_n1) {
  // The full model also visits mid-operation shared states (e.g. a cleared
  // toggle bit before the closing for-loop), so its shared count dominates
  // the quiescent-boundary count.
  auto full = theory::rw_bfs_configurations(1, 2, 2'000'000);
  auto quiescent = theory::rw_quiescent_reachability(1, 2);
  ASSERT_TRUE(full.complete);
  EXPECT_GE(full.shared_configs, quiescent.shared_configs);
}

TEST(rw_model, reachable_counts_grow_with_n) {
  auto q1 = theory::rw_quiescent_reachability(1, 2);
  auto q2 = theory::rw_quiescent_reachability(2, 2);
  auto q3 = theory::rw_quiescent_reachability(3, 2);
  EXPECT_LT(q1.shared_configs, q2.shared_configs);
  EXPECT_LT(q2.shared_configs, q3.shared_configs);
}

TEST(rw_model, reachable_far_below_budget) {
  // Algorithm 1 budgets 2N² bits of toggle state; its reachable shared-state
  // count stays far below 2^(2N²) — the data point behind the paper's open
  // problem on read/write space bounds.
  auto q3 = theory::rw_quiescent_reachability(3, 2);
  EXPECT_LT(q3.shared_configs, std::uint64_t{1} << 18)
      << "N=3 budget is 2*9=18 toggle bits";
}

TEST(rw_model, full_bfs_n2_within_cap) {
  auto c = theory::rw_bfs_configurations(2, 2, 6'000'000);
  EXPECT_GE(c.shared_configs, 4u);
  EXPECT_GE(c.total_configs, c.shared_configs);
}

// ---- Definition 3 / E4 ------------------------------------------------------

TEST(perturbing, register_witness_lemma3) {
  auto w = theory::register_witness();
  auto c = theory::check_witness(hist::register_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, counter_witness_lemma5) {
  auto w = theory::counter_witness();
  auto c = theory::check_witness(hist::counter_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, bounded_counter_is_doubly_perturbing) {
  auto w = theory::counter_witness();
  auto c = theory::check_witness(hist::counter_spec(0, 2), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, cas_witness_lemma6) {
  auto w = theory::cas_witness();
  auto c = theory::check_witness(hist::cas_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, faa_witness_lemma7) {
  auto w = theory::faa_witness();
  auto c = theory::check_witness(hist::counter_spec(0), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, queue_witness_lemma8) {
  auto w = theory::queue_witness();
  auto c = theory::check_witness(hist::queue_spec(), w);
  EXPECT_TRUE(c.ok) << c.detail;
}

TEST(perturbing, max_register_has_no_witness_lemma4) {
  std::vector<abstract_op> universe;
  for (int pid : {0, 1}) {
    for (hist::value_t v : {1, 2, 3}) {
      universe.push_back({pid, hist::opcode::max_write, v, 0});
    }
    universe.push_back({pid, hist::opcode::max_read, 0, 0});
  }
  auto res = theory::search_witness(hist::max_register_spec(0), universe,
                                    /*max_h1=*/2, /*max_ext=*/2);
  EXPECT_FALSE(res.found) << "unexpected witness: " << res.witness.to_string();
  EXPECT_GT(res.explored, 1000u);
}

TEST(perturbing, register_witness_found_by_search) {
  std::vector<abstract_op> universe;
  for (int pid : {0, 1}) {
    universe.push_back({pid, hist::opcode::reg_write, 0, 0});
    universe.push_back({pid, hist::opcode::reg_write, 1, 0});
    universe.push_back({pid, hist::opcode::reg_read, 0, 0});
  }
  auto res = theory::search_witness(hist::register_spec(0), universe, 1, 2);
  EXPECT_TRUE(res.found);
  auto check = theory::check_witness(hist::register_spec(0), res.witness);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(perturbing, successive_perturb_counts) {
  abstract_op inc{0, hist::opcode::ctr_add, 1, 0};
  abstract_op read{1, hist::opcode::ctr_read, 0, 0};
  // Unbounded counter: every increment perturbs the next read.
  EXPECT_EQ(theory::count_successive_perturbs(hist::counter_spec(0), {}, inc,
                                              read, 10),
            10);
  // Bounded counter {0,1,2}: at most 2 perturbations, then saturation.
  EXPECT_EQ(theory::count_successive_perturbs(hist::counter_spec(0, 2), {}, inc,
                                              read, 10),
            2);
  // Max register: the same write perturbs at most once.
  abstract_op wmax{0, hist::opcode::max_write, 5, 0};
  abstract_op mread{1, hist::opcode::max_read, 0, 0};
  EXPECT_EQ(theory::count_successive_perturbs(hist::max_register_spec(0), {},
                                              wmax, mread, 10),
            1);
}

TEST(perturbing, same_process_probe_is_not_perturbing) {
  abstract_op w{0, hist::opcode::reg_write, 1, 0};
  abstract_op r_same{0, hist::opcode::reg_read, 0, 0};
  EXPECT_FALSE(theory::is_perturbing_after(hist::register_spec(0), {}, w, r_same))
      << "Definition 3 requires Op' by a different process";
}

// ---- Theorem 2 / E3 ---------------------------------------------------------

TEST(aux_necessity, stripped_register_violates_on_e_branch) {
  auto out = theory::run_e_branch(theory::register_scenario(/*stripped=*/true));
  EXPECT_TRUE(out.violation)
      << "without auxiliary state the Figure-2 schedule must break "
         "detectability";
  EXPECT_EQ(out.verdict, hist::recovery_verdict::linearized)
      << "the recovery wrongly claims the fresh invocation linearized";
}

TEST(aux_necessity, proper_register_survives_e_branch) {
  auto out = theory::run_e_branch(theory::register_scenario(/*stripped=*/false));
  EXPECT_FALSE(out.violation) << out.detail;
  EXPECT_EQ(out.verdict, hist::recovery_verdict::fail)
      << "with CP/resp reset, recovery correctly reports not-linearized";
}

TEST(aux_necessity, stripped_cas_violates_on_e_branch) {
  auto out = theory::run_e_branch(theory::cas_scenario(/*stripped=*/true));
  EXPECT_TRUE(out.violation);
  EXPECT_EQ(out.verdict, hist::recovery_verdict::linearized);
}

TEST(aux_necessity, proper_cas_survives_e_branch) {
  auto out = theory::run_e_branch(theory::cas_scenario(/*stripped=*/false));
  EXPECT_FALSE(out.violation) << out.detail;
  EXPECT_EQ(out.verdict, hist::recovery_verdict::fail);
}

TEST(aux_necessity, stripped_queue_violates_on_e_branch) {
  auto out = theory::run_e_branch(theory::queue_scenario(/*stripped=*/true));
  EXPECT_TRUE(out.violation)
      << "FIFO queue is doubly-perturbing (Lemma 8); stripping the auxiliary "
         "resets must break it";
  EXPECT_EQ(out.verdict, hist::recovery_verdict::linearized);
}

TEST(aux_necessity, proper_queue_survives_e_branch) {
  auto out = theory::run_e_branch(theory::queue_scenario(/*stripped=*/false));
  EXPECT_FALSE(out.violation) << out.detail;
  EXPECT_EQ(out.verdict, hist::recovery_verdict::fail);
}

TEST(aux_necessity, stripped_counter_violates_on_e_branch) {
  auto out = theory::run_e_branch(theory::counter_scenario(/*stripped=*/true));
  EXPECT_TRUE(out.violation) << "counter is doubly-perturbing (Lemma 5)";
  EXPECT_EQ(out.verdict, hist::recovery_verdict::linearized);
}

TEST(aux_necessity, proper_counter_survives_e_branch) {
  auto out = theory::run_e_branch(theory::counter_scenario(/*stripped=*/false));
  EXPECT_FALSE(out.violation) << out.detail;
  EXPECT_EQ(out.verdict, hist::recovery_verdict::fail);
}

TEST(aux_necessity, max_register_survives_e_branch_without_aux) {
  auto out = theory::run_e_branch(theory::max_register_scenario());
  EXPECT_FALSE(out.violation)
      << "Lemma 4: the max register is not doubly-perturbing, so no witness "
         "schedule can break it\n"
      << out.detail;
}

TEST(aux_necessity, d_branch_is_benign_for_all) {
  // Crash just before the first Opp returns: the stale response is the right
  // answer there — that is exactly why the two branches are indistinguishable
  // and auxiliary state is needed to tell them apart.
  for (bool stripped : {false, true}) {
    for (const theory::aux_scenario& s :
         {theory::register_scenario(stripped), theory::cas_scenario(stripped),
          theory::queue_scenario(stripped),
          theory::counter_scenario(stripped)}) {
      auto out = theory::run_d_branch(s);
      EXPECT_FALSE(out.violation) << s.name << "\n" << out.detail;
      EXPECT_EQ(out.verdict, hist::recovery_verdict::linearized) << s.name;
    }
  }
  auto mr = theory::run_d_branch(theory::max_register_scenario());
  EXPECT_FALSE(mr.violation) << mr.detail;
}

// Every scenario's full outcome on both branches: what the checker says, what
// recovery claims (and returns), and what the final probe reads.
TEST(aux_necessity, outcomes_pinned_on_both_branches) {
  using v = hist::recovery_verdict;
  constexpr hist::value_t bot = hist::k_bottom;
  struct pin {
    theory::aux_scenario scenario;
    bool e_branch;
    bool violation;
    v verdict;
    hist::value_t recovered_value;
    hist::value_t probe_response;
  };
  const std::vector<pin> pins = {
      {theory::register_scenario(false), false, false, v::linearized, 0, 0},
      {theory::register_scenario(false), true, false, v::fail, bot, 0},
      {theory::register_scenario(true), false, false, v::linearized, 0, 0},
      {theory::register_scenario(true), true, true, v::linearized, 0, 0},
      {theory::cas_scenario(false), false, false, v::linearized, 1, 1},
      {theory::cas_scenario(false), true, false, v::fail, bot, 1},
      {theory::cas_scenario(true), false, false, v::linearized, 1, 1},
      {theory::cas_scenario(true), true, true, v::linearized, 1, 1},
      {theory::queue_scenario(false), false, false, v::linearized, 10, 10},
      {theory::queue_scenario(false), true, false, v::fail, bot, 10},
      {theory::queue_scenario(true), false, false, v::linearized, 10, 10},
      {theory::queue_scenario(true), true, true, v::linearized, 10, 10},
      {theory::counter_scenario(false), false, false, v::linearized, 0, 1},
      {theory::counter_scenario(false), true, false, v::fail, bot, 1},
      {theory::counter_scenario(true), false, false, v::linearized, 0, 1},
      {theory::counter_scenario(true), true, true, v::linearized, 0, 1},
      {theory::max_register_scenario(), false, false, v::linearized, 0, 5},
      {theory::max_register_scenario(), true, false, v::linearized, 0, 5},
  };
  for (const pin& p : pins) {
    const theory::aux_outcome out = p.e_branch
                                        ? theory::run_e_branch(p.scenario)
                                        : theory::run_d_branch(p.scenario);
    const std::string where =
        p.scenario.name + (p.e_branch ? " E-branch" : " D-branch");
    EXPECT_EQ(out.violation, p.violation) << where << "\n" << out.detail;
    EXPECT_EQ(out.verdict, p.verdict) << where;
    EXPECT_EQ(out.recovered_value, p.recovered_value) << where;
    EXPECT_EQ(out.probe_response, p.probe_response) << where;
  }
}

}  // namespace
