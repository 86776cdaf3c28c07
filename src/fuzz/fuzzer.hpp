// fuzzer — the campaign engine tying generator, coverage map, differ, and
// shrinker together.
//
// One iteration: derive the iteration seed, pick a primary kind
// (round-robin over the configured kind list), obtain a scenario — freshly
// generated, or, when steering is on, a mutation of a bucket-novel corpus
// seed aimed at an unseen scenario-key — replay it under the
// durable-linearizability + detectability oracle (including the
// single-vs-sharded equivalence diff), then differentially replay it with
// each declared object substituted by every registered variant of its kind.
// Every passing execution's bucket signature feeds the coverage map; seeds
// that discover a new bucket join the in-memory corpus that steering
// mutates preferentially. The first failing iteration stops the campaign;
// its scenario is greedily shrunk under the same oracle and reported as
// seed + original dump + shrunk dump — the artifact CI uploads and
// `fuzz_main --replay` reproduces. An exception out of the oracle is such a
// failure too: its message is `threw: <type>: <what>`, and the shrinker
// keeps only candidates that still throw the same type.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/scenario_gen.hpp"
#include "fuzz/shrinker.hpp"

namespace detect::fuzz {

struct fuzz_options {
  std::uint64_t base_seed = 1;
  std::uint64_t iterations = 100;
  /// First iteration index of this run's slice. A campaign's iteration
  /// stream is a pure function of (base_seed, iteration), so a worker
  /// running [first_iteration, first_iteration + iterations) executes
  /// exactly that slice of the serial campaign — the partition
  /// run_campaign() hands each forked worker. Kind rotation and iteration
  /// seeds both key on the absolute index, keeping a partitioned campaign's
  /// scenario set identical to the serial one.
  std::uint64_t first_iteration = 0;
  /// Kinds to fuzz; empty → every registry kind (non-detectable kinds get
  /// crash-free scenarios, see scenario_gen). Also the default
  /// object_kind_pool extra objects draw from when the gen config leaves it
  /// empty.
  std::vector<std::string> kinds;
  gen_config gen;
  /// Differentially replay against each declared object's kind variants.
  bool diff = true;
  /// Placement-equivalence campaign: every scenario with a shard knob also
  /// replays under modulo vs hash vs range placement, requiring identical
  /// verdicts (and response streams when single-object). The CI
  /// `--fuzz-placement` stage arms this with min_shards = 2.
  bool placement_equiv = false;
  /// Shrink the first failing scenario before reporting it.
  bool shrink = true;
  /// Coverage-steered generation: mutate bucket-novel corpus seeds toward
  /// unseen scenario-keys (7 of every 8 iterations once the corpus is
  /// non-empty; the rest stay freshly generated). Coverage is *tracked*
  /// either way — this knob only changes where scenarios come from, which
  /// is what the steered-vs-random acceptance test compares.
  bool steer = false;
  /// Per-object checker fan-out threaded into every oracle replay (see
  /// hist::check_options::jobs). Verdict-identical to serial; 1 = serial.
  int check_jobs = 1;
  /// Shared on-disk corpus directory. When non-empty, every scenario that
  /// discovers a new coverage bucket is dumped there (atomic write-then-
  /// rename), and the campaign periodically ingests dumps written by
  /// *other* workers into its steering corpus — how the forked workers of a
  /// `--jobs N` campaign cross-pollinate, and how consecutive nightly runs
  /// resume from each other's discoveries. With steering off the directory
  /// only accumulates dumps. Note: cross-worker ingest order depends on
  /// real-time file visibility, so a steered multi-worker campaign is not
  /// bit-reproducible — failures still are, via the dumped artifact.
  std::string corpus_dir;
  /// This worker's index within a multi-process campaign (names its corpus
  /// dumps; 0 for inline runs).
  int worker_index = 0;
};

/// One corpus entry: the iteration that discovered a new bucket. The
/// campaign is deterministic in (base_seed, options), so (base_seed,
/// iteration) reproduces the scenario; `mutated` records whether it came
/// from the mutation engine or straight from generate().
struct corpus_entry {
  std::uint64_t iteration = 0;
  std::uint64_t seed = 0;
  bool mutated = false;
  std::string bucket;
  int worker = -1;  // forked campaigns: the worker that found it first
};

/// One value's slice of a model axis's coverage accounting (axes.hpp): how
/// many scenarios ran under the value and how many distinct buckets they
/// reached — the numbers the PCT-vs-uniform and sc-vs-tso-vs-pso
/// comparisons (and job_summary's by_* tables) are built on.
struct slice_stats {
  std::string value;
  std::uint64_t executed = 0;
  std::size_t distinct_buckets = 0;
  /// (campaign-executed-so-far, this-slice's-distinct-so-far), one sample
  /// per bucket novel *within the slice*.
  std::vector<std::pair<std::uint64_t, std::size_t>> timeline;
};

/// Campaign-level coverage accounting — what `coverage.json` serializes
/// (see coverage_json in campaign.hpp).
struct coverage_stats {
  std::uint64_t executed = 0;       // scenarios that ran the full oracle
  std::size_t distinct_buckets = 0;
  bool steered = false;
  /// (executed-so-far, distinct-so-far), one sample per novel bucket.
  std::vector<std::pair<std::uint64_t, std::size_t>> timeline;
  std::vector<corpus_entry> corpus;
  /// Per model axis, in model_axes() order: one slice per value that drove
  /// at least one scenario (value-sorted).
  std::vector<std::vector<slice_stats>> by_axis;

  /// The slices of the axis named `axis` ("sched", "persist",
  /// "visibility"); empty when it drove nothing.
  const std::vector<slice_stats>& slices(std::string_view axis) const;
};

struct fuzz_failure {
  std::uint64_t iteration = 0;
  std::uint64_t base_seed = 0;  // the campaign's --seed
  std::uint64_t seed = 0;       // iteration_seed(base_seed, iteration)
  std::string kind;             // the failing scenario's primary kind
  std::string message;
  api::scripted_scenario scenario;
  api::scripted_scenario shrunk;  // == scenario when shrinking is off

  /// The replayable artifact: metadata + both dumps, one parseable block.
  std::string to_artifact() const;
};

struct fuzz_stats {
  std::uint64_t iterations = 0;  // iterations actually executed
  std::uint64_t replays = 0;     // scenario replays incl. diff + shrink
  coverage_stats coverage;
  std::optional<fuzz_failure> failure;
};

/// Run a fuzz campaign. Stops at the first failure (after shrinking it) or
/// after `opt.iterations` iterations. `progress`, if set, is called before
/// each iteration with (iteration, seed, kind).
fuzz_stats run_fuzz(
    const fuzz_options& opt,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress = nullptr);

}  // namespace detect::fuzz
