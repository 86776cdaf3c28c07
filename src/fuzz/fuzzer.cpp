#include "fuzz/fuzzer.hpp"

#include <cxxabi.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <typeinfo>

#include "fuzz/axes.hpp"

namespace detect::fuzz {

namespace {

/// The effective generator config of a campaign: when the caller left the
/// object-kind pool empty, extra objects draw from the campaign's own kind
/// list — multi-object scenarios mix exactly the kinds under test, and the
/// pool stays pinned against kinds other tests register later.
gen_config resolved_gen(const fuzz_options& opt,
                        const std::vector<std::string>& kinds) {
  gen_config gen = opt.gen;
  if (gen.object_kind_pool.empty() && gen.max_objects > 1) {
    gen.object_kind_pool = kinds;
  }
  return gen;
}

std::vector<std::string> resolved_kinds(const fuzz_options& opt) {
  if (!opt.kinds.empty()) return opt.kinds;
  return api::object_registry::global().kinds();
}

/// "threw: <type>: <what>" for the exception in flight; `*type` receives
/// its type. Call only from a catch block.
std::string describe_throw(const std::type_info** type) {
  *type = abi::__cxa_current_exception_type();
  std::string what = "(not a std::exception)";
  try {
    throw;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  int status = 0;
  char* demangled =
      abi::__cxa_demangle((*type)->name(), nullptr, nullptr, &status);
  std::string name = status == 0 ? demangled : (*type)->name();
  std::free(demangled);
  return "threw: " + name + ": " + what;
}

/// Prefix every line with "# " so a parse of the artifact skips the block.
std::string commented(const std::string& text) {
  std::ostringstream os;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) os << "# " << line << "\n";
  return os.str();
}

}  // namespace

const std::vector<slice_stats>& coverage_stats::slices(
    std::string_view axis) const {
  static const std::vector<slice_stats> none;
  const std::vector<model_axis>& axes = model_axes();
  for (std::size_t i = 0; i < axes.size() && i < by_axis.size(); ++i) {
    if (axis == axes[i].name) return by_axis[i];
  }
  return none;
}

std::string fuzz_failure::to_artifact() const {
  std::ostringstream os;
  os << "# detect fuzz failure\n"
     << "# campaign base seed " << base_seed << ", failed at iteration "
     << iteration << " (iteration seed " << seed << ", kind " << kind
     << ")\n"
     << "# reproduce this scenario:  fuzz_main --replay <this file>\n"
     << "# reproduce the campaign:   fuzz_main --seed " << base_seed
     << " --iters " << iteration + 1 << " (plus the campaign's --kind "
     << "flags, if any)\n"
     << commented(message)
     << "\n# ---- shrunk scenario (fuzz_main --replay <this file>) ----\n"
     << api::dump(shrunk)
     << "\n# ---- original scenario ----\n"
     << commented(api::dump(scenario));
  return os.str();
}

fuzz_stats run_fuzz(
    const fuzz_options& opt,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress) {
  const std::vector<std::string> kinds = resolved_kinds(opt);
  const gen_config gen = resolved_gen(opt, kinds);

  coverage_map cov;
  std::vector<api::scripted_scenario> corpus;
  // Per-axis coverage slices: each model value's own bucket set and
  // new-bucket timeline, keyed by value name (std::map → name-sorted).
  struct slice_accum {
    std::uint64_t executed = 0;
    std::set<std::string> buckets;
    std::vector<std::pair<std::uint64_t, std::size_t>> timeline;
  };
  const std::vector<model_axis>& axes = model_axes();
  std::vector<std::map<std::string, slice_accum>> slices(axes.size());

  // Shared on-disk corpus (multi-worker campaigns / resumed nightlies):
  // dumps we have already seen — our own or ingested — by filename.
  namespace fs = std::filesystem;
  std::set<std::string> corpus_seen;
  const bool disk_corpus = !opt.corpus_dir.empty();
  if (disk_corpus) {
    std::error_code ec;
    fs::create_directories(opt.corpus_dir, ec);  // best-effort; scan below
  }
  auto ingest_corpus = [&] {
    if (!disk_corpus) return;
    std::error_code ec;
    // Directory-sorted scan keeps ingest order deterministic per snapshot.
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(opt.corpus_dir, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      std::string name = entry.path().filename().string();
      if (name.size() < 4 || name.substr(name.size() - 4) != ".scn") continue;
      if (corpus_seen.count(name) != 0) continue;
      names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      corpus_seen.insert(name);
      std::ifstream in(fs::path(opt.corpus_dir) / name);
      if (!in) continue;
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        corpus.push_back(api::parse_scenario(buf.str()));
      } catch (const std::exception&) {
        // Foreign or truncated dump (writers rename atomically, so this is
        // a hand-dropped file): skip, never poison the campaign.
      }
    }
  };
  auto dump_to_corpus = [&](const api::scripted_scenario& s,
                            std::uint64_t iter) {
    if (!disk_corpus) return;
    const std::string name = "w" + std::to_string(opt.worker_index) + "-i" +
                             std::to_string(iter) + ".scn";
    corpus_seen.insert(name);  // our own dump: never re-ingest
    const fs::path dir(opt.corpus_dir);
    const fs::path tmp = dir / ("." + name + ".tmp");
    std::ofstream out(tmp);
    if (!out) return;
    out << api::dump(s);
    out.close();
    std::error_code ec;
    fs::rename(tmp, dir / name, ec);  // atomic publish: readers see whole files
  };
  ingest_corpus();

  fuzz_stats stats;
  stats.coverage.steered = opt.steer;
  const std::uint64_t end_iteration = opt.first_iteration + opt.iterations;
  for (std::uint64_t iter = opt.first_iteration; iter < end_iteration;
       ++iter) {
    const std::uint64_t seed = iteration_seed(opt.base_seed, iter);
    const std::string& kind = kinds[iter % kinds.size()];
    if (progress) progress(iter, seed, kind);
    ++stats.iterations;
    // Cross-pollinate from sibling workers' discoveries at a coarse stride —
    // a directory scan per iteration would swamp the oracle.
    if (disk_corpus && iter != opt.first_iteration && iter % 64 == 0) {
      ingest_corpus();
    }

    // Steering stream: decorrelated from generate()'s own stream so mutating
    // and generating from the same iteration seed stay independent.
    std::uint64_t rng = (seed ^ 0xA5A5A5A5A5A5A5A5ULL) | 1;
    api::scripted_scenario s;
    bool mutated = false;
    if (opt.steer && !corpus.empty() && iter % 8 != 0) {
      // Mutate corpus seeds, preferring the candidate whose (pre-run
      // predictable) scenario-key has the fewest buckets recorded under it:
      // an unseen key wins outright, and among seen keys the one with the
      // most unexplored outcome dimensions (crash phase, recovery, checker
      // paths) is the best remaining bet.
      std::size_t best = 0;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const api::scripted_scenario& base =
            corpus[sim::next_rand(rng) % corpus.size()];
        api::scripted_scenario cand = mutate(base, rng, gen);
        const std::size_t under =
            cov.buckets_under(scenario_signature(cand).scenario_key());
        if (attempt == 0 || under < best) {
          best = under;
          s = std::move(cand);
        }
        mutated = true;
        if (best == 0) break;
      }
    } else {
      s = generate(seed, kind, gen);
    }

    api::scripted_outcome primary;
    std::string failure;
    const std::type_info* thrown = nullptr;
    try {
      failure = check_scenario(s, opt.diff, &stats.replays, &primary,
                               opt.placement_equiv, opt.check_jobs);
    } catch (...) {
      failure = describe_throw(&thrown);
    }
    if (failure.empty()) {
      const bucket_signature b = bucket_of(s, primary);
      const bool novel = cov.record(b);
      const std::string& key = cov.last_key();
      if (novel) {
        corpus.push_back(s);
        stats.coverage.corpus.push_back({iter, seed, mutated, key});
        dump_to_corpus(s, iter);
      }
      for (std::size_t i = 0; i < axes.size(); ++i) {
        slice_accum& acc = slices[i][b.*axes[i].bucket_field];
        ++acc.executed;
        if (acc.buckets.insert(key).second) {
          acc.timeline.emplace_back(cov.executed(), acc.buckets.size());
        }
      }
      continue;
    }

    // The oracle: a candidate fails as the original did — by a rejection,
    // or by a throw of the same type. Its message on failure, else empty.
    auto fails = [&](const api::scripted_scenario& c) -> std::string {
      try {
        std::string msg = check_scenario(c, opt.diff, &stats.replays, nullptr,
                                         opt.placement_equiv, opt.check_jobs);
        return thrown == nullptr ? msg : std::string();
      } catch (...) {
        const std::type_info* type = nullptr;
        std::string msg = describe_throw(&type);
        return thrown != nullptr && *type == *thrown ? msg : std::string();
      }
    };
    fuzz_failure f;
    f.iteration = iter;
    f.base_seed = opt.base_seed;
    f.seed = seed;
    f.kind = s.primary().kind;
    f.message = failure;
    f.scenario = s;
    f.shrunk = s;
    if (opt.shrink) {
      f.shrunk = shrink(s, [&](const api::scripted_scenario& c) {
        return !fails(c).empty();
      });
      // Re-derive the message from the minimized scenario — it is the one
      // a human debugs first.
      std::string shrunk_msg = fails(f.shrunk);
      if (!shrunk_msg.empty()) f.message = shrunk_msg;
    }
    stats.failure = std::move(f);
    break;
  }
  stats.coverage.executed = cov.executed();
  stats.coverage.distinct_buckets = cov.distinct();
  stats.coverage.timeline = cov.timeline();
  for (const auto& axis_slices : slices) {
    std::vector<slice_stats>& out = stats.coverage.by_axis.emplace_back();
    for (const auto& [value, acc] : axis_slices) {
      out.push_back({value, acc.executed, acc.buckets.size(), acc.timeline});
    }
  }
  return stats;
}

}  // namespace detect::fuzz
