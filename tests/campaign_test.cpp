// Pins of the multi-process campaign supervisor (fuzz/campaign.hpp).
//
// The load-bearing property: a `--jobs N` campaign partitions the *same*
// absolute iteration stream the serial campaign walks — every worker derives
// scenarios from (base_seed, absolute iteration) — so with steering off the
// merged coverage (bucket union, discovery iterations, per-strategy totals)
// is exactly the serial campaign's, independent of N. Forking, worker
// summaries, and the merged coverage JSON are exercised for real here.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/fuzz.hpp"
#include "test_util.hpp"
#include "util/task_pool.hpp"

namespace {

using namespace detect;
namespace fs = std::filesystem;

TEST(partition, covers_every_iteration_exactly_once) {
  const auto slices = fuzz::partition_iterations(10, 3);
  ASSERT_EQ(slices.size(), 3u);
  // Remainder spreads over the leading workers: 4 + 3 + 3.
  EXPECT_EQ(slices[0], std::make_pair(std::uint64_t{0}, std::uint64_t{4}));
  EXPECT_EQ(slices[1], std::make_pair(std::uint64_t{4}, std::uint64_t{3}));
  EXPECT_EQ(slices[2], std::make_pair(std::uint64_t{7}, std::uint64_t{3}));
}

TEST(partition, clamps_jobs_to_iteration_count) {
  const auto slices = fuzz::partition_iterations(3, 8);
  ASSERT_EQ(slices.size(), 3u);  // never an empty slice / idle fork
  for (std::size_t w = 0; w < slices.size(); ++w) {
    EXPECT_EQ(slices[w], std::make_pair(std::uint64_t{w}, std::uint64_t{1}));
  }
}

TEST(partition, degenerate_inputs_yield_no_slices) {
  EXPECT_TRUE(fuzz::partition_iterations(0, 4).empty());
  EXPECT_TRUE(fuzz::partition_iterations(5, 0).empty());
}

TEST(partition, contiguous_for_many_shapes) {
  for (std::uint64_t total : {1ull, 7ull, 64ull, 1000ull, 30001ull}) {
    for (int jobs : {1, 2, 3, 4, 7, 16}) {
      const auto slices = fuzz::partition_iterations(total, jobs);
      std::uint64_t next = 0;
      for (const auto& [first, count] : slices) {
        EXPECT_EQ(first, next) << total << "/" << jobs;
        EXPECT_GT(count, 0u) << total << "/" << jobs;
        next = first + count;
      }
      EXPECT_EQ(next, total) << total << "/" << jobs;
    }
  }
}

TEST(campaign_config, fluent_setters_mirror_executor_builder) {
  fuzz::campaign_config cfg;
  cfg.iterations(123)
      .seed(9)
      .kinds({"reg", "cas"})
      .steer(true)
      .check_jobs(2)
      .jobs(3)
      .corpus_dir("corpus-x")
      .artifact_dir("arts-y")
      .coverage_out("cov-z.json")
      .quiet(true);
  EXPECT_EQ(cfg.options.iterations, 123u);
  EXPECT_EQ(cfg.options.base_seed, 9u);
  EXPECT_EQ(cfg.options.kinds, (std::vector<std::string>{"reg", "cas"}));
  EXPECT_TRUE(cfg.options.steer);
  EXPECT_EQ(cfg.options.check_jobs, 2);
  EXPECT_EQ(cfg.jobs(), 3);
  EXPECT_EQ(cfg.options.corpus_dir, "corpus-x");
  EXPECT_EQ(cfg.artifact_dir(), "arts-y");
  EXPECT_EQ(cfg.coverage_out(), "cov-z.json");
  EXPECT_TRUE(cfg.quiet());
}

/// Scratch dir for a test, wiped on entry so reruns start clean.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("detect_campaign_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Every bucket a campaign found, with its discovery iteration and seed.
std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> discoveries(
    const fuzz::campaign_result& r) {
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> keys;
  for (const fuzz::corpus_entry& e : r.stats.coverage.corpus) {
    keys.insert({e.bucket, e.iteration, e.seed});
  }
  return keys;
}

// A forked 3-worker campaign over 90 iterations must merge to exactly the
// serial campaign's coverage: same bucket union, same discovery provenance
// (iteration + seed per bucket), same per-strategy totals, summed executed.
TEST(campaign, forked_coverage_merges_to_the_serial_campaign) {
  const fs::path dir = scratch_dir("fork");

  fuzz::campaign_config serial;
  serial.iterations(90).seed(21).quiet(true);
  fuzz::campaign_result s = fuzz::run_campaign(serial);
  ASSERT_EQ(s.exit_code, 0);
  ASSERT_FALSE(s.forked);

  fuzz::campaign_config forked;
  forked.iterations(90).seed(21).jobs(3).quiet(true);
  forked.artifact_dir((dir / "arts").string())
      .coverage_out((dir / "cov.json").string());
  fuzz::campaign_result f = fuzz::run_campaign(forked);
  ASSERT_EQ(f.exit_code, 0);
  ASSERT_TRUE(f.forked);
  ASSERT_EQ(f.workers.size(), 3u);

  // Workers ran their assigned contiguous slices, nothing was lost.
  std::uint64_t executed = 0;
  for (const fuzz::worker_report& w : f.workers) {
    EXPECT_FALSE(w.lost) << "worker " << w.worker;
    EXPECT_FALSE(w.failed) << "worker " << w.worker;
    EXPECT_EQ(w.executed, w.iterations) << "worker " << w.worker;
    executed += w.executed;
  }
  EXPECT_EQ(executed, 90u);
  EXPECT_EQ(f.stats.coverage.executed, s.stats.coverage.executed);

  // Bucket union == serial bucket set, with identical discovery provenance.
  EXPECT_EQ(discoveries(f), discoveries(s));
  EXPECT_EQ(f.stats.coverage.distinct_buckets,
            s.stats.coverage.distinct_buckets);

  // Per-axis executed/distinct recomputed from the union match serial.
  auto slice_map = [](const fuzz::coverage_stats& cov) {
    std::set<std::tuple<std::string, std::string, std::uint64_t, std::size_t>>
        m;
    for (const fuzz::model_axis& ax : fuzz::model_axes()) {
      for (const fuzz::slice_stats& st : cov.slices(ax.name)) {
        m.insert({ax.name, st.value, st.executed, st.distinct_buckets});
      }
    }
    return m;
  };
  EXPECT_EQ(slice_map(f.stats.coverage), slice_map(s.stats.coverage));
  EXPECT_EQ(slice_map(f.stats.coverage).size(), fuzz::model_axes().size());

  // The artifacts dir holds one complete summary per worker, and the merged
  // JSON carries the campaign-level keys job_summary renders.
  for (int w = 0; w < 3; ++w) {
    EXPECT_TRUE(fs::exists(dir / "arts" /
                           ("worker-" + std::to_string(w) + ".summary")));
  }
  std::ifstream cov(dir / "cov.json");
  ASSERT_TRUE(cov.good());
  std::ostringstream buf;
  buf << cov.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"jobs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  EXPECT_NE(json.find("\"distinct_buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
}

// Forked workers must not inherit the parent's busy process-wide pool: once
// a sharded replay and a 4-lane check gave it workers, a fork leaves each
// child the pool object but none of its threads. The campaign still has to
// finish and merge to the serial run's coverage.
TEST(campaign, forked_workers_start_with_a_fresh_shared_pool) {
  auto ex = api::executor::builder()
                .backend(api::exec_backend::sharded)
                .shards(4)
                .procs(2)
                .pool_threads(4)
                .build();
  api::counter c0 = ex->add_counter();
  api::counter c1 = ex->add_counter();
  ex->script(0, {c0.add(1), c1.add(2)});
  ex->script(1, {c1.add(3), c0.add(4)});
  ex->run();
  ASSERT_TRUE(ex->check().ok);

  fuzz::campaign_config serial;
  serial.iterations(60).seed(33).check_jobs(4).quiet(true);
  fuzz::campaign_result s = fuzz::run_campaign(serial);
  ASSERT_EQ(s.exit_code, 0);
  ASSERT_GE(util::task_pool::shared().workers(), 4);

  const fs::path dir = scratch_dir("fork_pool");
  fuzz::campaign_config forked;
  forked.iterations(60).seed(33).check_jobs(4).jobs(3).quiet(true);
  forked.artifact_dir((dir / "arts").string());
  fuzz::campaign_result f = fuzz::run_campaign(forked);
  ASSERT_EQ(f.exit_code, 0);
  ASSERT_TRUE(f.forked);
  ASSERT_EQ(f.workers.size(), 3u);
  for (const fuzz::worker_report& w : f.workers) {
    EXPECT_FALSE(w.lost) << "worker " << w.worker;
    EXPECT_EQ(w.executed, w.iterations) << "worker " << w.worker;
  }
  EXPECT_EQ(f.stats.coverage.executed, s.stats.coverage.executed);
  EXPECT_EQ(discoveries(f), discoveries(s));
}

// The shared on-disk corpus: novel-bucket scenarios are dumped as parseable
// .scn files, a later campaign ingests them, and foreign garbage never
// poisons a run.
TEST(campaign, disk_corpus_round_trips_and_survives_garbage) {
  const fs::path dir = scratch_dir("corpus");

  fuzz::fuzz_options opt;
  opt.iterations = 40;
  opt.base_seed = 5;
  opt.corpus_dir = dir.string();
  fuzz::fuzz_stats first = fuzz::run_fuzz(opt);
  ASSERT_FALSE(first.failure) << first.failure->message;

  // One dump per novel bucket, every one parseable back to a scenario.
  std::size_t dumps = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    ++dumps;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_NO_THROW(api::parse_scenario(buf.str())) << entry.path();
  }
  EXPECT_EQ(dumps, first.coverage.corpus.size());

  // A hand-dropped garbage dump must be skipped, not fatal — and a steered
  // campaign seeded only by the directory still runs its full budget.
  std::ofstream(dir / "zzz-garbage.scn") << "not a scenario\n";
  fuzz::fuzz_options steered;
  steered.iterations = 30;
  steered.base_seed = 6;
  steered.steer = true;
  steered.corpus_dir = dir.string();
  steered.worker_index = 1;  // dumps must not collide with worker 0's
  fuzz::fuzz_stats second = fuzz::run_fuzz(steered);
  EXPECT_FALSE(second.failure) << second.failure->message;
  EXPECT_EQ(second.coverage.executed, 30u);
}

// A throw out of the library fails the campaign the way a rejection does —
// exit code 1 and a replayable artifact — inline and in a forked worker,
// which no longer dies with it.
TEST(campaign, a_throw_exits_1_with_an_artifact) {
  test::register_throwing_counter_once();
  const fs::path dir = scratch_dir("throw");
  for (int jobs : {1, 2}) {
    fuzz::campaign_config cfg;
    cfg.iterations(20).seed(5).jobs(jobs).quiet(true);
    cfg.kinds({"test_throwing_counter"});
    cfg.artifact_dir((dir / ("arts" + std::to_string(jobs))).string());
    fuzz::campaign_result r = fuzz::run_campaign(cfg);
    EXPECT_EQ(r.exit_code, 1) << "jobs " << jobs;
    bool artifact = false;
    for (const fuzz::worker_report& w : r.workers) {
      EXPECT_FALSE(w.lost || w.error) << "jobs " << jobs;
      if (!w.failed) continue;
      ASSERT_FALSE(w.failure_artifact.empty()) << "jobs " << jobs;
      std::ifstream in(w.failure_artifact);
      std::ostringstream buf;
      buf << in.rdbuf();
      EXPECT_NE(buf.str().find("# threw: std::domain_error: "),
                std::string::npos);
      EXPECT_THROW(fuzz::check_scenario(api::parse_scenario(buf.str())),
                   std::domain_error);
      artifact = true;
    }
    EXPECT_TRUE(artifact) << "jobs " << jobs;
  }
}

// jobs > 1 with a single iteration stays inline — nothing to partition.
TEST(campaign, single_iteration_runs_inline) {
  fuzz::campaign_config cfg;
  cfg.iterations(1).seed(3).jobs(4).quiet(true);
  fuzz::campaign_result r = fuzz::run_campaign(cfg);
  EXPECT_FALSE(r.forked);
  ASSERT_EQ(r.workers.size(), 1u);
  EXPECT_EQ(r.workers[0].executed, 1u);
}

}  // namespace
