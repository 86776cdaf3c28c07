// axes — the fuzzer's model axes, registered once.
//
// A model axis is a per-scenario choice about the simulated machine that the
// fuzzer draws from a gen_config pool: the schedule strategy (`sched`), the
// persistency model (`persist`) and the store-buffer visibility model
// (`visibility`). generate() and mutate() draw and edit them, shrink()
// canonicalizes them and drops their points, coverage slices by them (the
// `by_*` tables of coverage.json), fuzz_main parses `--<name>` and prints
// `--list-models`, and differ messages name them — all by looping over
// `model_axes()`.
//
// The table order is part of the determinism contract: draws, mutation
// cases and shrink passes consume the xorshift stream (and the shrinker's
// oracle budget) in this order, and a default pool draws nothing. Adding an
// axis is one entry here plus its scenario field, its frozen dump line
// (api/replay.cpp) and its gen_config pool.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/scenario_gen.hpp"

namespace detect::fuzz {

struct axis_value {
  const char* name = nullptr;
  bool has_points = false;  // the axis's point list is live under this value
  const char* description = nullptr;  // one line, printed by --list-models
};

struct model_axis {
  const char* name = nullptr;   // "sched": the flag and describe() key
  const char* noun = nullptr;   // "schedule strategy": unknown-value errors
  const char* title = nullptr;  // "schedule strategies": --list-models
  const char* dflt = nullptr;   // a pool of exactly this value draws nothing
  const char* shrink_target = nullptr;  // the canonical value shrink tries
  std::vector<std::string> gen_config::*pool = nullptr;
  std::vector<axis_value> values;
  /// mutate()'s edit: flip to the next value (true) or redraw from the pool.
  bool flips = false;

  /// The scenario's current value name.
  std::string (*get)(const api::scripted_scenario&) = nullptr;
  /// Set the value by name (a name from `values`) and clear the point list.
  void (*set)(api::scripted_scenario&, const std::string&) = nullptr;

  /// Optional point list (pct preemption points, scripted drain steps):
  /// nullptr when the axis has none. Points are drawn only under values with
  /// `has_points`, between min_points and max_points of them (or the
  /// gen_config knob `depth` when set, which `--<name> NAME:depth` also
  /// sets), over the scenario's step horizon.
  const std::vector<std::uint64_t>* (*points)(const api::scripted_scenario&) =
      nullptr;
  const char* points_name = nullptr;  // "pct_points"
  std::uint64_t min_points = 0;
  std::uint64_t max_points = 0;
  int gen_config::*depth = nullptr;

  /// Coverage: the bucket-key coordinate and the signature field it fills;
  /// `points_bucket` (optional) is the min(points, 3) coordinate that
  /// follows it in the key.
  const char* coord = nullptr;
  std::string bucket_signature::*bucket_field = nullptr;
  const char* points_coord = nullptr;
  int bucket_signature::*points_bucket = nullptr;
  /// The coverage slice: coverage.json table `by_<slice>` whose rows name
  /// the value under `<slice>`, and the worker-summary line tag.
  const char* slice = nullptr;

  const axis_value* find(std::string_view value) const;
  /// The writable point list of `s` (the axis must have one).
  std::vector<std::uint64_t>& points_of(api::scripted_scenario& s) const;
  /// The point list is live (drawn, perturbed, kept) under the current value.
  bool points_live(const api::scripted_scenario& s) const;
};

/// The registered axes, in draw order: sched, persist, visibility.
const std::vector<model_axis>& model_axes();

/// Is this axis's pool opted into (anything beyond its single default)?
bool pool_open(const model_axis& ax, const gen_config& cfg);

/// Draw the axis's value from its pool, then its points when the value has
/// any. Throws std::invalid_argument on a pool naming an unknown value.
void draw_axis(const model_axis& ax, std::uint64_t& rng,
               api::scripted_scenario& s, const gen_config& cfg);

/// mutate()'s value edit: flip or redraw.
void mutate_axis(const model_axis& ax, std::uint64_t& rng,
                 api::scripted_scenario& s, const gen_config& cfg);

/// mutate()'s point edit: add a point or drop one. False (nothing drawn)
/// when the current value has no live point list.
bool perturb_points(const model_axis& ax, std::uint64_t& rng,
                    api::scripted_scenario& s);

/// shrink()'s pass-0 edit: move to the shrink target (clearing the points).
/// False when already there.
bool canonicalize(const model_axis& ax, api::scripted_scenario& s);

/// " sched=pct pct_points=12,40 persist=strict visibility=sc": every axis's
/// value, plus its points when there are any.
std::string describe_models(const api::scripted_scenario& s);

}  // namespace detect::fuzz
