#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "fuzz/axes.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace detect::fuzz {

namespace fs = std::filesystem;

std::vector<std::pair<std::uint64_t, std::uint64_t>> partition_iterations(
    std::uint64_t total, int jobs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  if (total == 0 || jobs < 1) return out;
  const std::uint64_t n =
      std::min<std::uint64_t>(total, static_cast<std::uint64_t>(jobs));
  const std::uint64_t base = total / n;
  const std::uint64_t extra = total % n;
  std::uint64_t first = 0;
  for (std::uint64_t w = 0; w < n; ++w) {
    const std::uint64_t count = base + (w < extra ? 1 : 0);
    out.emplace_back(first, count);
    first += count;
  }
  return out;
}

namespace {

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// One `tag=` coordinate of a bucket key (tag without the '='). The merged
/// per-axis tables recompute distinct counts from the bucket *union* — each
/// worker only knows its own buckets, so its per-value distinct counts don't
/// sum across workers.
std::string coord_of_bucket(const std::string& key, const std::string& tag) {
  std::size_t at = key.find("|" + tag + "=");
  if (at == std::string::npos) return "?";
  at += 2 + tag.size();
  const std::size_t end = key.find('|', at);
  return key.substr(at, end == std::string::npos ? end : end - at);
}

/// What a worker hands back to the supervisor, serialized line-oriented into
/// `<artifact_dir>/worker-<N>.summary`. Bucket keys and model value names
/// are space-free by construction, so whitespace tokenizing is safe; the
/// artifact path is a line tail. The files double as the archivable
/// per-worker record the CI lane uploads alongside the failure artifacts.
struct worker_summary {
  std::uint64_t executed = 0;
  std::uint64_t replays = 0;
  bool failed = false;
  std::uint64_t failure_iteration = 0;
  std::string failure_artifact;
  std::vector<corpus_entry> corpus;  // this slice's novel buckets
  /// Per model axis (model_axes() order): scenarios executed per value.
  std::vector<std::map<std::string, std::uint64_t>> executed_by_axis =
      std::vector<std::map<std::string, std::uint64_t>>(model_axes().size());
};

std::string summary_path(const std::string& artifact_dir, int worker) {
  return (fs::path(artifact_dir) /
          ("worker-" + std::to_string(worker) + ".summary"))
      .string();
}

void write_summary(const std::string& path, const worker_summary& ws) {
  std::ofstream out(path);
  if (!out) return;  // parent flags the worker lost — silence never passes
  out << "executed " << ws.executed << "\n";
  out << "replays " << ws.replays << "\n";
  out << "failed " << (ws.failed ? 1 : 0) << "\n";
  if (ws.failed) {
    out << "failure_iteration " << ws.failure_iteration << "\n";
    out << "artifact " << ws.failure_artifact << "\n";
  }
  for (std::size_t i = 0; i < model_axes().size(); ++i) {
    for (const auto& [value, executed] : ws.executed_by_axis[i]) {
      out << model_axes()[i].slice << " " << value << " " << executed << "\n";
    }
  }
  for (const corpus_entry& e : ws.corpus) {
    out << "bucket " << e.iteration << " " << e.seed << " "
        << (e.mutated ? 1 : 0) << " " << e.bucket << "\n";
  }
  out << "end\n";
}

bool read_summary(const std::string& path, worker_summary* ws) {
  std::ifstream in(path);
  if (!in) return false;
  bool complete = false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "executed") {
      ls >> ws->executed;
    } else if (tag == "replays") {
      ls >> ws->replays;
    } else if (tag == "failed") {
      int v = 0;
      ls >> v;
      ws->failed = v != 0;
    } else if (tag == "failure_iteration") {
      ls >> ws->failure_iteration;
    } else if (tag == "artifact") {
      std::getline(ls >> std::ws, ws->failure_artifact);
    } else if (tag == "bucket") {
      corpus_entry e;
      int mutated = 0;
      ls >> e.iteration >> e.seed >> mutated >> e.bucket;
      e.mutated = mutated != 0;
      ws->corpus.push_back(e);
    } else if (tag == "end") {
      complete = true;  // truncated file (worker died mid-write) stays lost
    } else {
      for (std::size_t i = 0; i < model_axes().size(); ++i) {
        if (tag != model_axes()[i].slice) continue;
        std::string value;
        std::uint64_t executed = 0;
        ls >> value >> executed;
        ws->executed_by_axis[i][value] += executed;
      }
    }
  }
  return complete;
}

worker_summary summary_from_stats(const fuzz_stats& stats,
                                  const std::string& artifact) {
  worker_summary ws;
  ws.executed = stats.coverage.executed;
  ws.replays = stats.replays;
  ws.corpus = stats.coverage.corpus;
  for (std::size_t i = 0; i < stats.coverage.by_axis.size(); ++i) {
    for (const slice_stats& sl : stats.coverage.by_axis[i]) {
      ws.executed_by_axis[i][sl.value] = sl.executed;
    }
  }
  if (stats.failure) {
    ws.failed = true;
    ws.failure_iteration = stats.failure->iteration;
    ws.failure_artifact = artifact;
  }
  return ws;
}

/// Write the failing scenario's artifact — the path shape fuzz_main always
/// used, so the `--replay` instructions inside keep working. Empty on IO
/// failure.
std::string write_artifact(const std::string& dir, const fuzz_failure& f) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path =
      (fs::path(dir) / ("fuzz-failure-" + std::to_string(f.seed) + ".txt"))
          .string();
  std::ofstream out(path);
  if (!out) return {};
  out << f.to_artifact();
  return path;
}

/// Write coverage_json to cfg.coverage_out() when set; false on IO failure.
bool write_coverage(const campaign_config& cfg, const campaign_result& r) {
  if (cfg.coverage_out().empty()) return true;
  std::ofstream out(cfg.coverage_out());
  if (!out) return false;
  out << coverage_json(cfg, r);
  return true;
}

/// Inline (jobs <= 1) path: exactly the classic run_fuzz campaign, plus the
/// artifact/coverage writing fuzz_main used to do by hand.
campaign_result run_inline(
    const campaign_config& cfg,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress) {
  campaign_result r;
  r.stats = run_fuzz(cfg.options, cfg.quiet() ? nullptr : progress);

  worker_report w;
  w.worker = cfg.options.worker_index;
  w.first_iteration = cfg.options.first_iteration;
  w.iterations = cfg.options.iterations;
  w.executed = r.stats.coverage.executed;
  w.replays = r.stats.replays;
  w.distinct_buckets = r.stats.coverage.distinct_buckets;
  if (r.stats.failure) {
    w.failed = true;
    w.failure_iteration = r.stats.failure->iteration;
    if (!cfg.artifact_dir().empty()) {
      w.failure_artifact = write_artifact(cfg.artifact_dir(), *r.stats.failure);
    }
    r.exit_code = 1;
  }
  r.workers.push_back(std::move(w));

  if (!write_coverage(cfg, r)) r.exit_code = 2;
  return r;
}

}  // namespace

campaign_result run_campaign(
    const campaign_config& cfg,
    const std::function<void(std::uint64_t, std::uint64_t,
                             const std::string&)>& progress) {
  if (cfg.jobs() <= 1 || cfg.options.iterations <= 1) {
    return run_inline(cfg, progress);
  }
  campaign_result r;
  r.forked = true;

  // Forked workers report through the filesystem; make sure there is one,
  // and default the shared steering corpus to living beside the artifacts so
  // one upload archives both.
  campaign_config effective = cfg;
  if (effective.artifact_dir().empty()) {
    effective.artifact_dir("fuzz-artifacts");
  }
  if (effective.options.corpus_dir.empty()) {
    effective.options.corpus_dir =
        (fs::path(effective.artifact_dir()) / "corpus").string();
  }
  std::error_code ec;
  fs::create_directories(effective.artifact_dir(), ec);

  const auto slices =
      partition_iterations(effective.options.iterations, effective.jobs());

  struct child {
    pid_t pid = -1;
    worker_report report;
  };
  std::vector<child> children;
  children.reserve(slices.size());

  for (std::size_t w = 0; w < slices.size(); ++w) {
    worker_report rep;
    rep.worker = static_cast<int>(w);
    rep.first_iteration = slices[w].first;
    rep.iterations = slices[w].second;

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
      // Could not spawn: flag as lost and keep going — the workers that did
      // start still merge.
      rep.lost = true;
      children.push_back({-1, std::move(rep)});
      continue;
    }
    if (pid == 0) {
      // ---- worker process --------------------------------------------
      fuzz_options wopt = effective.options;
      wopt.first_iteration = slices[w].first;
      wopt.iterations = slices[w].second;
      wopt.worker_index = static_cast<int>(w);
      int code = 2;
      try {
        std::uint64_t last = wopt.first_iteration;
        fuzz_stats stats = run_fuzz(
            wopt,
            [&](std::uint64_t iter, std::uint64_t, const std::string&) {
              if (effective.quiet()) return;
              // Sparse prefixed progress: ~10 lines per worker, not one per
              // iteration — N workers share one terminal.
              const std::uint64_t stride = wopt.iterations / 10 + 1;
              if (iter == wopt.first_iteration || iter - last >= stride) {
                last = iter;
                std::printf("[w%d] iteration %llu/%llu\n", wopt.worker_index,
                            static_cast<unsigned long long>(
                                iter - wopt.first_iteration),
                            static_cast<unsigned long long>(wopt.iterations));
                std::fflush(stdout);
              }
            });
        std::string artifact;
        if (stats.failure) {
          artifact = write_artifact(effective.artifact_dir(), *stats.failure);
          std::printf(
              "[w%d] FAIL at iteration %llu (seed %llu): %s\n",
              wopt.worker_index,
              static_cast<unsigned long long>(stats.failure->iteration),
              static_cast<unsigned long long>(stats.failure->seed),
              artifact.empty() ? "artifact unwritable" : artifact.c_str());
          std::fflush(stdout);
        }
        write_summary(summary_path(effective.artifact_dir(), wopt.worker_index),
                      summary_from_stats(stats, artifact));
        code = stats.failure ? 1 : 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[w%d] error: %s\n", static_cast<int>(w),
                     e.what());
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(code);
      // ----------------------------------------------------------------
    }
    children.push_back({pid, std::move(rep)});
  }

  // Collect. Workers are independent; wait order does not matter. The
  // bucket union keeps provenance: first discovery (by absolute iteration)
  // wins, so the merged corpus is independent of which worker finished
  // first.
  const std::vector<model_axis>& axes = model_axes();
  std::vector<corpus_entry> merged;
  std::map<std::string, std::size_t> by_key;
  std::vector<std::map<std::string, std::uint64_t>> executed(axes.size());
  for (child& c : children) {
    if (c.pid < 0) continue;
    int status = 0;
    if (waitpid(c.pid, &status, 0) != c.pid || !WIFEXITED(status)) {
      c.report.lost = true;  // signal/OOM kill — died without reporting
      continue;
    }
    if (WEXITSTATUS(status) == 2) c.report.error = true;
    worker_summary ws;
    if (!read_summary(summary_path(effective.artifact_dir(), c.report.worker),
                      &ws)) {
      // Exited but never published a complete summary: lost, unless it
      // already declared an infrastructure error.
      if (!c.report.error) c.report.lost = true;
      continue;
    }
    c.report.executed = ws.executed;
    c.report.replays = ws.replays;
    c.report.distinct_buckets = ws.corpus.size();
    c.report.failed = ws.failed;
    c.report.failure_iteration = ws.failure_iteration;
    c.report.failure_artifact = ws.failure_artifact;

    r.stats.iterations += ws.executed;
    r.stats.replays += ws.replays;
    r.stats.coverage.executed += ws.executed;
    if (c.report.error) continue;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      for (const auto& [value, n] : ws.executed_by_axis[i]) {
        executed[i][value] += n;
      }
    }
    for (corpus_entry e : ws.corpus) {
      e.worker = c.report.worker;
      auto it = by_key.find(e.bucket);
      if (it == by_key.end()) {
        by_key.emplace(e.bucket, merged.size());
        merged.push_back(std::move(e));
      } else if (e.iteration < merged[it->second].iteration) {
        merged[it->second] = std::move(e);
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const corpus_entry& a, const corpus_entry& b) {
              return a.iteration < b.iteration;
            });
  coverage_stats& cov = r.stats.coverage;
  cov.distinct_buckets = merged.size();
  cov.steered = effective.options.steer;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    std::map<std::string, std::size_t> distinct;
    for (const corpus_entry& e : merged) {
      ++distinct[coord_of_bucket(e.bucket, axes[i].coord)];
    }
    std::vector<slice_stats>& slices = cov.by_axis.emplace_back();
    for (const auto& [value, n] : executed[i]) {
      slices.push_back({value, n, distinct[value], {}});
    }
  }
  cov.corpus = std::move(merged);

  for (child& c : children) r.workers.push_back(std::move(c.report));

  bool any_failed = false;
  bool any_lost = false;
  for (const worker_report& w : r.workers) {
    any_failed |= w.failed;
    any_lost |= w.lost || w.error;
  }
  r.exit_code = any_lost ? 2 : (any_failed ? 1 : 0);

  if (!write_coverage(effective, r)) r.exit_code = 2;
  return r;
}

namespace {

void write_timeline(
    std::ostream& os,
    const std::vector<std::pair<std::uint64_t, std::size_t>>& timeline) {
  os << "[";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    os << (i != 0 ? ", " : "") << "[" << timeline[i].first << ", "
       << timeline[i].second << "]";
  }
  os << "]";
}

}  // namespace

std::string coverage_json(const campaign_config& cfg,
                          const campaign_result& r) {
  const coverage_stats& cov = r.stats.coverage;
  std::ostringstream os;
  os << "{\n";
  os << "  \"base_seed\": " << cfg.options.base_seed << ",\n";
  os << "  \"iterations\": " << cfg.options.iterations << ",\n";
  if (r.forked) os << "  \"jobs\": " << cfg.jobs() << ",\n";
  os << "  \"executed\": " << cov.executed << ",\n";
  os << "  \"distinct_buckets\": " << cov.distinct_buckets << ",\n";
  os << "  \"steered\": " << (cov.steered ? "true" : "false") << ",\n";
  os << "  \"new_bucket_timeline\": ";
  write_timeline(os, cov.timeline);
  os << ",\n";
  if (r.forked) {
    os << "  \"workers\": [\n";
    for (std::size_t i = 0; i < r.workers.size(); ++i) {
      const worker_report& w = r.workers[i];
      os << "    {\"worker\": " << w.worker
         << ", \"first_iteration\": " << w.first_iteration
         << ", \"iterations\": " << w.iterations
         << ", \"executed\": " << w.executed << ", \"replays\": " << w.replays
         << ", \"new_buckets\": " << w.distinct_buckets
         << ", \"failed\": " << (w.failed ? "true" : "false")
         << ", \"lost\": " << (w.lost || w.error ? "true" : "false") << "}";
      os << (i + 1 < r.workers.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
  }
  const std::vector<model_axis>& axes = model_axes();
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::vector<slice_stats>& slices = cov.slices(axes[a].name);
    os << "  \"by_" << axes[a].slice << "\": [\n";
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const slice_stats& sl = slices[i];
      os << "    {\"" << axes[a].slice << "\": \"" << json_escaped(sl.value)
         << "\", \"executed\": " << sl.executed
         << ", \"distinct_buckets\": " << sl.distinct_buckets
         << ", \"new_bucket_timeline\": ";
      write_timeline(os, sl.timeline);
      os << "}" << (i + 1 < slices.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
  }
  os << "  \"corpus\": [\n";
  for (std::size_t i = 0; i < cov.corpus.size(); ++i) {
    const corpus_entry& e = cov.corpus[i];
    os << "    {\"iteration\": " << e.iteration << ", \"seed\": " << e.seed
       << ", \"mutated\": " << (e.mutated ? "true" : "false");
    if (e.worker >= 0) os << ", \"worker\": " << e.worker;
    os << ", \"bucket\": \"" << json_escaped(e.bucket) << "\"}";
    os << (i + 1 < cov.corpus.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace detect::fuzz
