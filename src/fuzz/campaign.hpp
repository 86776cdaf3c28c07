// campaign — multi-process fuzz campaign supervisor.
//
// One campaign_config consolidates run_fuzz's knob list (iterations, seed,
// steering, kinds, generator config) with the campaign-level concerns the
// CLI used to juggle loose (artifact dir, coverage output, job count, shared
// corpus dir) behind fluent setters in the style of executor::builder:
//
//   auto r = fuzz::run_campaign(fuzz::campaign_config()
//                                   .iterations(300000)
//                                   .seed(42)
//                                   .steer(true)
//                                   .jobs(4)
//                                   .corpus_dir("corpus/")
//                                   .artifact_dir("fuzz-artifacts/")
//                                   .coverage_out("coverage.json"));
//
// jobs <= 1 runs run_fuzz inline — byte-identical to the pre-campaign CLI.
// jobs > 1 forks N worker processes. The iteration range [0, iterations) is
// partitioned into N contiguous slices; every worker derives its scenarios
// from the same (base_seed, absolute-iteration) stream, so the campaign
// covers exactly the serial campaign's scenario set, N-ways parallel.
// Workers cross-pollinate steering corpora through the shared corpus
// directory, write per-worker summaries + shrunk failure artifacts into the
// artifact dir, and the parent merges coverage into one
// campaign-coverage.json: executed sums, buckets union (with per-worker
// provenance on every corpus entry), per-axis tables recomputed from the
// union. A worker that dies without reporting (signal, OOM) is flagged
// `lost` and fails the campaign — silence is never success.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzzer.hpp"

namespace detect::fuzz {

class campaign_config {
 public:
  /// The inner per-worker engine options. Exposed directly so CLI parsing
  /// can reach every generator knob without a setter per field; the fluent
  /// setters below cover the campaign-shaping subset.
  fuzz_options options;

  campaign_config& iterations(std::uint64_t n) {
    options.iterations = n;
    return *this;
  }
  campaign_config& seed(std::uint64_t s) {
    options.base_seed = s;
    return *this;
  }
  campaign_config& kinds(std::vector<std::string> k) {
    options.kinds = std::move(k);
    return *this;
  }
  campaign_config& steer(bool on) {
    options.steer = on;
    return *this;
  }
  campaign_config& check_jobs(int n) {
    options.check_jobs = n;
    return *this;
  }
  /// Worker processes. 1 (default) = inline in this process; N > 1 forks N
  /// workers over a partition of the iteration range (clamped to the
  /// iteration count — a 3-iteration --jobs 8 campaign forks 3 workers).
  campaign_config& jobs(int n) {
    jobs_ = n;
    return *this;
  }
  /// Shared on-disk corpus directory (see fuzz_options::corpus_dir). Armed
  /// automatically per worker; also usable with jobs == 1 to persist and
  /// resume discoveries across campaigns.
  campaign_config& corpus_dir(std::string dir) {
    options.corpus_dir = std::move(dir);
    return *this;
  }
  /// Where failure artifacts and per-worker summaries land. Forked
  /// campaigns require one (failures in a child are otherwise unreportable
  /// in full); run_campaign defaults it to "fuzz-artifacts" when jobs > 1
  /// and none is set.
  campaign_config& artifact_dir(std::string dir) {
    artifact_dir_ = std::move(dir);
    return *this;
  }
  /// Merged coverage JSON path ("" = don't write). Inline campaigns write
  /// the classic single-campaign shape; forked campaigns add `jobs` and a
  /// per-worker `workers` table.
  campaign_config& coverage_out(std::string path) {
    coverage_out_ = std::move(path);
    return *this;
  }
  campaign_config& quiet(bool on) {
    quiet_ = on;
    return *this;
  }

  int jobs() const noexcept { return jobs_; }
  const std::string& artifact_dir() const noexcept { return artifact_dir_; }
  const std::string& coverage_out() const noexcept { return coverage_out_; }
  bool quiet() const noexcept { return quiet_; }

 private:
  int jobs_ = 1;
  std::string artifact_dir_;
  std::string coverage_out_;
  bool quiet_ = false;
};

/// Partition `total` iterations into at most `jobs` contiguous
/// (first_iteration, count) slices: every iteration covered exactly once, the
/// remainder spread one-each over the leading workers, empty slices dropped.
std::vector<std::pair<std::uint64_t, std::uint64_t>> partition_iterations(
    std::uint64_t total, int jobs);

/// One worker's outcome as the supervisor saw it.
struct worker_report {
  int worker = 0;
  std::uint64_t first_iteration = 0;
  std::uint64_t iterations = 0;  // slice size assigned
  std::uint64_t executed = 0;    // iterations actually run
  std::uint64_t replays = 0;
  std::size_t distinct_buckets = 0;  // within this worker's slice
  bool failed = false;  // found a real failure (artifact written)
  bool error = false;   // infrastructure error (exit 2)
  bool lost = false;    // died without reporting (signal/OOM) — flagged red
  std::uint64_t failure_iteration = 0;  // valid when failed
  std::string failure_artifact;         // path, when failed and writable
};

struct campaign_result {
  /// Inline path: the run's full fuzz_stats. Forked path: merged coverage
  /// (union buckets, summed executed) with `failure` unset — failures live
  /// in the workers' artifacts, pointed at by the reports below.
  fuzz_stats stats;
  std::vector<worker_report> workers;  // one entry even on the inline path
  bool forked = false;
  /// fuzz_main's exit code: 0 clean, 1 failure found, 2 infrastructure
  /// error (including lost workers and unwritable outputs).
  int exit_code = 0;
};

/// The campaign's coverage.json: executed/distinct counts, the new-bucket
/// timeline, one `by_<slice>` table per model axis, and the corpus. Forked
/// campaigns add `jobs`, the per-worker `workers` table and each corpus
/// entry's discovering `worker`; their timelines stay empty (each worker's
/// executed-so-far clock is its own, so a global one cannot be rebuilt).
std::string coverage_json(const campaign_config& cfg, const campaign_result& r);

/// Run the campaign `cfg` describes. `progress`, when set and not quiet, is
/// called per iteration on the inline path only (forked workers print their
/// own prefixed lines instead — callbacks cannot cross fork boundaries).
campaign_result run_campaign(
    const campaign_config& cfg,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress = nullptr);

}  // namespace detect::fuzz
