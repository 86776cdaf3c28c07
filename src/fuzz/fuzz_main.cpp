// fuzz_main — CLI driver for long differential-fuzzing campaigns.
//
//   fuzz_main                          # default campaign over all kinds
//   fuzz_main --iters 5000 --seed 42   # bounded, reproducible campaign
//   fuzz_main --kind cas --kind queue  # restrict the kind pool
//   fuzz_main --objects-max K          # up to K objects per scenario
//   fuzz_main --sharded-equiv          # every iteration diffs single vs
//                                      # sharded (the CI equivalence stage)
//   fuzz_main --placement-equiv        # every iteration diffs modulo vs
//                                      # hash vs range placement (the CI
//                                      # placement stage)
//   fuzz_main --placement NAME         # pin the generator's placement knob
//                                      # (modulo|hash|range|pinned|none)
//   fuzz_main --shards-max K           # bound the generator's shard knob
//   fuzz_main --sched NAME[:depth]     # model-axis pools (--list-models):
//   fuzz_main --persist NAME           # one value, or mixed (all of them);
//   fuzz_main --visibility NAME        # :depth bounds pct budgets (def. 3)
//   fuzz_main --jobs N                 # fork N worker processes over a
//                                      # partition of the iteration range
//                                      # (the 300k nightly at 30k wall-clock)
//   fuzz_main --check-jobs N           # per-object checker threads inside
//                                      # every oracle replay (0 = auto)
//   fuzz_main --corpus-dir DIR         # shared on-disk corpus: dump novel
//                                      # scenarios, ingest siblings'
//   fuzz_main --coverage               # coverage-steered generation
//   fuzz_main --coverage-out FILE      # write coverage.json (buckets,
//                                      # timeline, corpus seed list; merged
//                                      # across workers under --jobs) — the
//                                      # nightly deep-fuzz lane's artifact
//   fuzz_main --out artifacts/         # failure artifacts + per-worker
//                                      # summaries (default fuzz-artifacts
//                                      # under --jobs)
//   fuzz_main --replay failure.txt     # re-run a dumped scenario and print
//                                      # its coverage bucket signature and
//                                      # the primary check's node count
//   fuzz_main --list-kinds             # print the registry kind pool
//   fuzz_main --list-models            # print every model axis's values
//                                      # with one-line descriptions
//
// Exit status: 0 clean, 1 failure found (artifact written when --out is
// set), 2 usage/IO error or lost worker. The same binary backs the CI fuzz
// stages (`scripts/check.sh --fuzz N` / `--fuzz-sharded N` /
// `--fuzz-deep N [--jobs J]`).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/fuzz.hpp"

namespace {

using namespace detect;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--iters N] [--seed S] [--kind K]... [--procs-max P]\n"
      "          [--ops-max M] [--objects-max K] [--shards-min K]\n"
      "          [--shards-max K] [--sharded-equiv] [--placement-equiv]\n"
      "          [--placement NAME] [--sched NAME[:depth]] [--persist MODE]\n"
      "          [--visibility MODE] [--jobs N] [--check-jobs N]\n"
      "          [--corpus-dir DIR] [--coverage] [--coverage-out FILE]\n"
      "          [--no-diff] [--no-shrink] [--no-crashes]\n"
      "          [--out DIR] [--replay FILE] [--list-kinds] [--list-models]\n"
      "          [--quiet]\n",
      argv0);
  return 2;
}

/// The model axis a `--<name>` flag selects, or nullptr.
const fuzz::model_axis* axis_flag(const char* arg) {
  if (std::strncmp(arg, "--", 2) != 0) return nullptr;
  for (const fuzz::model_axis& ax : fuzz::model_axes()) {
    if (std::strcmp(arg + 2, ax.name) == 0) return &ax;
  }
  return nullptr;
}

int replay_file(const std::string& path, int check_jobs) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fuzz_main: cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  api::scripted_scenario s = api::parse_scenario(buf.str());
  std::printf("replaying %zu object(s) [", s.objects.size());
  for (std::size_t i = 0; i < s.objects.size(); ++i) {
    std::printf("%s%u:%s", i != 0 ? " " : "", s.objects[i].id,
                s.objects[i].kind.c_str());
  }
  std::printf("] (%d procs, %zu ops, %zu crash steps, placement %s, "
              "%zu migrations)\n",
              s.nprocs, s.total_ops(), s.crash_steps.size(),
              s.placement.to_string().c_str(), s.migrations.size());
  std::printf("models:%s (sched seed %llu)\n",
              fuzz::describe_models(s).c_str(),
              static_cast<unsigned long long>(s.sched_seed));
  api::scripted_outcome outcome;
  std::string failure =
      fuzz::check_scenario(s, /*diff=*/true, /*replays=*/nullptr, &outcome,
                           /*placement=*/s.shards > 1, check_jobs);
  // The bucket signature matches the failure artifact to its coverage.json
  // bucket by hand (outcome bits reflect the replay just performed).
  std::printf("bucket: %s\n", fuzz::bucket_of(s, outcome).key().c_str());
  // The primary check's search size: any change to the linearizer's search
  // order or memoization shows here first.
  std::printf("checker: nodes=%zu, objects=%zu\n", outcome.check.nodes,
              outcome.check.objects);
  if (failure.empty()) {
    std::printf("PASS: scenario is clean\n");
    return 0;
  }
  std::printf("FAIL:\n%s\n", failure.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::campaign_config cfg;
  fuzz::fuzz_options& opt = cfg.options;
  opt.iterations = 200;
  std::string replay_path;
  bool sharded_equiv = false;
  bool placement_equiv = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::exit(usage(argv[0]));
    }
    return argv[++i];
  };
  // Strict numeric parsing: a typo'd "--iters abc" must not silently become
  // a 0-iteration campaign that prints PASS, and an overflowing value must
  // not clamp to ULLONG_MAX and run forever.
  auto need_u64 = [&](int& i) -> std::uint64_t {
    const char* text = need_value(i);
    char* end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "fuzz_main: '%s' is not a valid number\n", text);
      std::exit(2);
    }
    return v;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--iters") == 0) {
      cfg.iterations(need_u64(i));
      if (opt.iterations == 0) {
        std::fprintf(stderr, "fuzz_main: --iters must be positive\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      cfg.seed(need_u64(i));
    } else if (std::strcmp(arg, "--kind") == 0) {
      opt.kinds.emplace_back(need_value(i));
    } else if (std::strcmp(arg, "--jobs") == 0) {
      cfg.jobs(static_cast<int>(need_u64(i)));
      if (cfg.jobs() < 1) {
        std::fprintf(stderr, "fuzz_main: --jobs must be positive\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--check-jobs") == 0) {
      cfg.check_jobs(static_cast<int>(need_u64(i)));
    } else if (std::strcmp(arg, "--corpus-dir") == 0) {
      cfg.corpus_dir(need_value(i));
    } else if (std::strcmp(arg, "--procs-max") == 0) {
      opt.gen.max_procs = static_cast<int>(need_u64(i));
    } else if (std::strcmp(arg, "--ops-max") == 0) {
      opt.gen.max_ops = static_cast<int>(need_u64(i));
    } else if (std::strcmp(arg, "--objects-max") == 0) {
      opt.gen.max_objects = static_cast<int>(need_u64(i));
    } else if (std::strcmp(arg, "--shards-max") == 0) {
      opt.gen.max_shards = static_cast<int>(need_u64(i));
    } else if (std::strcmp(arg, "--shards-min") == 0) {
      // >= 2 arms the single-vs-sharded equivalence diff on every iteration
      // while keeping the variant pass (unlike --sharded-equiv, which trades
      // the variant pass for a pure equivalence campaign).
      opt.gen.min_shards = static_cast<int>(need_u64(i));
      if (opt.gen.max_shards < opt.gen.min_shards) {
        opt.gen.max_shards = opt.gen.min_shards;
      }
    } else if (std::strcmp(arg, "--sharded-equiv") == 0) {
      sharded_equiv = true;
    } else if (std::strcmp(arg, "--placement-equiv") == 0) {
      placement_equiv = true;
    } else if (std::strcmp(arg, "--placement") == 0) {
      const char* name = need_value(i);
      if (std::strcmp(name, "none") != 0) {
        try {
          api::placement_from_name(name);  // validate before the campaign
        } catch (const std::exception& e) {
          std::fprintf(stderr, "fuzz_main: %s\n", e.what());
          return 2;
        }
      }
      opt.gen.placement = name;
    } else if (const fuzz::model_axis* ax = axis_flag(arg)) {
      // --sched/--persist/--visibility NAME: "mixed" pools every value, a
      // single name pins every scenario to it. Axes with a depth knob also
      // take NAME:depth (bounding pct preemption budgets).
      std::string spec = need_value(i);
      if (std::size_t colon = spec.find(':');
          ax->depth != nullptr && colon != std::string::npos) {
        const std::string depth = spec.substr(colon + 1);
        char* end = nullptr;
        errno = 0;
        const unsigned long long d = std::strtoull(depth.c_str(), &end, 10);
        if (end == depth.c_str() || *end != '\0' || errno == ERANGE ||
            d == 0) {
          std::fprintf(stderr, "fuzz_main: bad pct depth '%s'\n",
                       depth.c_str());
          return 2;
        }
        opt.gen.*ax->depth = static_cast<int>(d);
        spec.resize(colon);
      }
      std::vector<std::string>& pool = opt.gen.*ax->pool;
      if (spec == "mixed") {
        pool.clear();
        for (const fuzz::axis_value& v : ax->values) pool.emplace_back(v.name);
      } else if (ax->find(spec) != nullptr) {
        pool = {spec};
      } else {
        std::fprintf(stderr, "fuzz_main: unknown %s '%s'\n", ax->noun,
                     spec.c_str());
        return 2;
      }
    } else if (std::strcmp(arg, "--coverage") == 0) {
      cfg.steer(true);
    } else if (std::strcmp(arg, "--coverage-out") == 0) {
      // Coverage is tracked on every campaign; this only chooses to write
      // it out. Steering stays governed by --coverage, so a plain campaign
      // can still report its buckets without changing how it generates.
      cfg.coverage_out(need_value(i));
    } else if (std::strcmp(arg, "--no-diff") == 0) {
      opt.diff = false;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      opt.shrink = false;
    } else if (std::strcmp(arg, "--no-crashes") == 0) {
      opt.gen.crashes = false;
    } else if (std::strcmp(arg, "--out") == 0) {
      cfg.artifact_dir(need_value(i));
    } else if (std::strcmp(arg, "--replay") == 0) {
      replay_path = need_value(i);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      cfg.quiet(true);
    } else if (std::strcmp(arg, "--list-kinds") == 0) {
      for (const std::string& k : api::object_registry::global().kinds()) {
        std::printf("%s\n", k.c_str());
      }
      return 0;
    } else if (std::strcmp(arg, "--list-models") == 0) {
      for (const fuzz::model_axis& ax : fuzz::model_axes()) {
        std::printf("%s (--%s):\n", ax.title, ax.name);
        for (const fuzz::axis_value& v : ax.values) {
          std::printf("  %-15s %s\n", v.name, v.description);
        }
      }
      std::printf("registry kinds: run --list-kinds\n");
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  // Applied after flag parsing so ordering cannot neuter it: an equivalence
  // campaign whose generator never draws shards >= 2 would vacuously PASS.
  if (sharded_equiv) {
    opt.gen.min_shards = 2;
    if (opt.gen.max_shards < 2) opt.gen.max_shards = 4;
    opt.diff = false;
  }
  if (placement_equiv) {
    opt.gen.min_shards = 2;
    if (opt.gen.max_shards < 2) opt.gen.max_shards = 4;
    opt.placement_equiv = true;
    opt.diff = false;
  }

  try {
    if (!replay_path.empty()) {
      return replay_file(replay_path, opt.check_jobs);
    }

    for (const std::string& k : opt.kinds) {
      if (!api::object_registry::global().contains(k)) {
        std::fprintf(stderr, "fuzz_main: unknown kind '%s'\n", k.c_str());
        return 2;
      }
    }

    std::uint64_t last_reported = 0;
    fuzz::campaign_result r = fuzz::run_campaign(
        cfg, [&](std::uint64_t iter, std::uint64_t seed,
                 const std::string& kind) {
          // One progress line every ~5% of the campaign (inline path only;
          // forked workers print their own prefixed lines).
          std::uint64_t stride = opt.iterations / 20 + 1;
          if (iter == 0 || iter - last_reported >= stride) {
            last_reported = iter;
            std::printf("iter %llu/%llu  kind=%s  seed=%llu\n",
                        static_cast<unsigned long long>(iter),
                        static_cast<unsigned long long>(opt.iterations),
                        kind.c_str(), static_cast<unsigned long long>(seed));
            std::fflush(stdout);
          }
        });

    if (!cfg.coverage_out().empty() && r.exit_code != 2) {
      std::printf("coverage written to %s\n", cfg.coverage_out().c_str());
    }

    if (r.forked) {
      // Per-worker roll call, then the merged verdict.
      for (const fuzz::worker_report& w : r.workers) {
        std::printf(
            "worker %d: iterations [%llu, %llu): %s"
            " (%llu executed, %llu replays, %zu new buckets)\n",
            w.worker, static_cast<unsigned long long>(w.first_iteration),
            static_cast<unsigned long long>(w.first_iteration + w.iterations),
            w.lost ? "LOST" : (w.error ? "ERROR" : (w.failed ? "FAIL" : "ok")),
            static_cast<unsigned long long>(w.executed),
            static_cast<unsigned long long>(w.replays),
            w.distinct_buckets);
        if (w.failed) {
          std::printf("  failure at iteration %llu, artifact: %s\n",
                      static_cast<unsigned long long>(w.failure_iteration),
                      w.failure_artifact.empty() ? "(unwritable)"
                                                 : w.failure_artifact.c_str());
        }
      }
      if (r.exit_code == 0) {
        std::printf(
            "PASS: %llu iterations across %zu workers, %llu replays, "
            "%zu coverage buckets%s, base seed %llu\n",
            static_cast<unsigned long long>(r.stats.coverage.executed),
            r.workers.size(), static_cast<unsigned long long>(r.stats.replays),
            r.stats.coverage.distinct_buckets,
            r.stats.coverage.steered ? " (steered)" : "",
            static_cast<unsigned long long>(opt.base_seed));
      } else if (r.exit_code == 1) {
        std::printf("FAIL: see worker artifacts above "
                    "(fuzz_main --replay <artifact>)\n");
      } else {
        std::fprintf(stderr, "fuzz_main: campaign infrastructure error "
                             "(lost worker or unwritable output)\n");
      }
      return r.exit_code;
    }

    if (r.exit_code == 2) {
      std::fprintf(stderr, "fuzz_main: cannot write campaign outputs\n");
      return 2;
    }
    if (!r.stats.failure) {
      std::printf(
          "PASS: %llu iterations, %llu replays, %zu coverage buckets%s, "
          "base seed %llu\n",
          static_cast<unsigned long long>(r.stats.iterations),
          static_cast<unsigned long long>(r.stats.replays),
          r.stats.coverage.distinct_buckets,
          r.stats.coverage.steered ? " (steered)" : "",
          static_cast<unsigned long long>(opt.base_seed));
      return 0;
    }

    const fuzz::fuzz_failure& f = *r.stats.failure;
    std::printf("FAIL at iteration %llu (kind %s, seed %llu):\n%s\n",
                static_cast<unsigned long long>(f.iteration), f.kind.c_str(),
                static_cast<unsigned long long>(f.seed), f.message.c_str());
    std::printf("\nshrunk scenario (%zu ops, %zu crash steps):\n%s",
                f.shrunk.total_ops(), f.shrunk.crash_steps.size(),
                api::dump(f.shrunk).c_str());
    const fuzz::worker_report& w = r.workers.front();
    if (!w.failure_artifact.empty()) {
      std::printf("\nartifact written to %s\n", w.failure_artifact.c_str());
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_main: %s\n", e.what());
    return 2;
  }
}
