// detect::fuzz — registry-driven workload generation and differential
// crash-fuzzing over the detect::api façade.
//
//   axes.hpp          the model-axis table (schedule, persistency,
//                     visibility) every layer below draws, mutates,
//                     shrinks, slices and parses from
//   scenario_gen.hpp  seed → multi-object scripted_scenario synthesis, plus
//                     the structural mutation engine steering feeds on
//   coverage.hpp      bucket signatures + the campaign coverage map
//   differ.hpp        differential replay against baseline/stripped variants
//   shrinker.hpp      greedy minimization of failing scenarios
//   fuzzer.hpp        the campaign engine (generate/mutate → check → diff →
//                     bucket → shrink)
//   campaign.hpp      campaign_config + the multi-process (--jobs N)
//                     supervisor that partitions an iteration range over
//                     forked workers and merges their coverage
//
// The standing adversary for every registry kind: tests/fuzz_test.cpp runs
// it over the whole registry, fuzz_main drives long budgeted campaigns, and
// CI replays a bounded campaign on every push.
#pragma once

#include "fuzz/axes.hpp"          // IWYU pragma: export
#include "fuzz/campaign.hpp"      // IWYU pragma: export
#include "fuzz/coverage.hpp"      // IWYU pragma: export
#include "fuzz/differ.hpp"        // IWYU pragma: export
#include "fuzz/fuzzer.hpp"        // IWYU pragma: export
#include "fuzz/scenario_gen.hpp"  // IWYU pragma: export
#include "fuzz/shrinker.hpp"      // IWYU pragma: export
