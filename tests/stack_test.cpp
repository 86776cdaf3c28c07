// Detectable durable stack (Algorithm 2's flip vector on the head pointer).
#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using namespace detect::test;

scenario stack_scenario(int nprocs,
                        std::function<scripts(api::stack)> make_scripts,
                        core::runtime::fail_policy policy =
                            core::runtime::fail_policy::skip) {
  return one_object<api::stack>("stack", nprocs, std::move(make_scripts),
                                policy);
}

TEST(detectable_stack, sequential_lifo) {
  auto cfg = stack_scenario(1, [](api::stack s) {
    return scripts{{0, {s.push(1), s.push(2), s.pop(), s.pop(), s.pop()}}};
  });
  auto out = run_scenario(cfg, 1);
  EXPECT_TRUE(out.check.ok) << out.check.message;
}

TEST(detectable_stack, empty_pop) {
  auto cfg = stack_scenario(1, [](api::stack s) {
    return scripts{{0, {s.pop(), s.push(5), s.pop(), s.pop()}}};
  });
  auto out = run_scenario(cfg, 1);
  EXPECT_TRUE(out.check.ok) << out.check.message;
}

TEST(detectable_stack, rejects_too_many_processes) {
  nvm::pmem_domain dom;
  core::announcement_board board(33, dom);
  EXPECT_THROW(core::detectable_stack(33, board, 8, dom),
               std::invalid_argument);
}

TEST(detectable_stack, concurrent_push_pop_many_seeds) {
  auto cfg = stack_scenario(3, [](api::stack s) {
    return scripts{
        {0, {s.push(1), s.push(2)}},
        {1, {s.pop(), s.push(3)}},
        {2, {s.pop(), s.pop()}},
    };
  });
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto out = run_scenario(cfg, seed);
    ASSERT_TRUE(out.check.ok) << "seed " << seed << "\n" << out.check.message;
  }
}

TEST(detectable_stack, mid_stack_pop_is_impossible) {
  // Regression guard for the LIFO race: a pop that read an old head must not
  // linearize against a deeper node once pushes landed above it. The packed
  // head-CAS makes the stale attempt fail; the spec check would flag any
  // violation across seeds.
  auto cfg = stack_scenario(3, [](api::stack s) {
    return scripts{
        {0, {s.push(1), s.push(2), s.push(3)}},
        {1, {s.pop(), s.pop()}},
        {2, {s.push(9), s.pop()}},
    };
  });
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    auto out = run_scenario(cfg, seed);
    ASSERT_TRUE(out.check.ok) << "seed " << seed << "\n" << out.check.message;
  }
}

TEST(detectable_stack, crash_sweep_push) {
  auto cfg = stack_scenario(2, [](api::stack s) {
    return scripts{
        {0, {s.push(1), s.push(2)}},
        {1, {s.pop()}},
    };
  });
  crash_sweep(cfg, 3);
}

TEST(detectable_stack, crash_sweep_pop) {
  auto cfg = stack_scenario(2, [](api::stack s) {
    return scripts{
        {0, {s.push(1), s.pop()}},
        {1, {s.pop()}},
    };
  });
  crash_sweep(cfg, 7);
}

TEST(detectable_stack, crash_pair_sweep) {
  auto cfg = stack_scenario(2,
                            [](api::stack s) {
                              return scripts{
                                  {0, {s.push(1), s.pop()}},
                                  {1, {s.push(2)}},
                              };
                            },
                            core::runtime::fail_policy::retry);
  crash_pair_sweep(cfg, 11, /*stride=*/3);
}

TEST(detectable_stack, crash_fuzz_retry_exactly_once) {
  auto cfg = stack_scenario(3,
                            [](api::stack s) {
                              return scripts{
                                  {0, {s.push(1), s.push(2)}},
                                  {1, {s.pop(), s.push(3)}},
                                  {2, {s.pop(), s.pop()}},
                              };
                            },
                            core::runtime::fail_policy::retry);
  crash_fuzz(cfg, 150, 2);
}

TEST(detectable_stack, pop_recovery_returns_persisted_value) {
  // Crash a pop at every step; whenever recovery says linearized, the value
  // must match what the spec expects — covered by the checker; additionally
  // no run may lose or duplicate the single pushed value.
  auto cfg = stack_scenario(2,
                            [](api::stack s) {
                              return scripts{
                                  {0, {s.push(42), s.pop()}},
                                  {1, {s.pop()}},
                              };
                            },
                            core::runtime::fail_policy::retry);
  crash_sweep(cfg, 19);
}

class stack_property : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(stack_property, lifo_under_fuzz) {
  auto [seed, crashes] = GetParam();
  auto cfg = stack_scenario(2, [](api::stack s) {
    return scripts{
        {0, {s.push(1), s.pop()}},
        {1, {s.push(2), s.pop()}},
    };
  });
  crash_fuzz(cfg, 10, crashes, static_cast<std::uint64_t>(seed) * 87178291);
}

INSTANTIATE_TEST_SUITE_P(sweep, stack_property,
                         ::testing::Combine(::testing::Range(1, 7),
                                            ::testing::Values(0, 1, 2)));

}  // namespace
