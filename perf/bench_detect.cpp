// bench_detect — the end-to-end benchmark binary: one process runs one
// workload against the public API and reports what a user of the fuzzer,
// checker, simulator and serving front-end would see.
//
//   bench_detect --workload W --seed S --seconds T [--proc J/P]
//   bench_detect --workload W --seed S --seconds 0        # set-up only
//   bench_detect --workload W --seed S --trace-out FILE   # traced run
//   bench_detect --smoke [--workload W]   # every workload at ~1% size
//   bench_detect --host                    # the host block, as JSON
//
// perf/run.py launches it in fresh processes and aggregates; see
// perf/README.md for the workloads and metrics. Protocol: the process prints
// `ready` once its one-time set-up is done (run.py times launch → ready as
// setup_s), then runs an untimed warm-up, then timed items until `--seconds`
// of timed work have passed, checks every output, and prints one JSON object
// as its last line. Exit status is nonzero when any item failed or any
// correctness check did not hold.
//
// Every layer is measured from outside, by timing calls into its public
// functions. The traced run (--trace-out) keeps spans in memory (name,
// start, end, parent, item id), writes them as Chrome trace-event JSON, and
// turns their self times into the per-layer table. It runs a fixed amount of
// work once to warm up, then untraced, traced and untraced again, so the
// overhead of tracing is measured on the same inputs.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "serve/serve.hpp"

namespace {

using namespace detect;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Input seeds: every workload input is a pure function of (--seed, a, b).
std::uint64_t seed_of(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return fuzz::iteration_seed(fuzz::iteration_seed(seed, a), b);
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

/// The highest of p99/p95/p90/p50 with at least ten samples beyond it — a
/// traced run's samples are too few for a fixed p99.
double tail(const std::vector<double>& v) {
  for (double q : {0.99, 0.95, 0.90}) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      return quantile(v, q);
    }
  }
  return quantile(v, 0.5);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string json_escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into each layer, kept in memory.

struct span_rec {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  int parent;
  std::uint64_t item;
};

struct layer_time {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::uint64_t calls = 0;
};

class tracer {
 public:
  explicit tracer(bool on) : on_(on), origin_(now_ns()) {}

  bool on() const noexcept { return on_; }
  void set_item(std::uint64_t id) noexcept { item_ = id; }

  int open(const char* name) {
    if (!on_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), item_});
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    stack_.pop_back();
  }

  /// Self time (duration minus the children's) and total time per name.
  std::map<std::string, layer_time> by_name() const {
    std::vector<std::uint64_t> child(spans_.size(), 0);
    for (const span_rec& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, layer_time> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span_rec& s = spans_[i];
      layer_time& t = out[s.name];
      t.self_ms += static_cast<double>(s.end - s.start - child[i]) / 1e6;
      t.total_ms += ms_between(s.start, s.end);
      ++t.calls;
    }
    return out;
  }

  /// Chrome trace-event JSON (complete events, microsecond timestamps).
  bool write_chrome(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
        << json_escaped(workload) << "\"}, \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span_rec& s = spans_[i];
      out << "{\"name\": \"" << s.name
          << "\", \"cat\": \"detect\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
          << ", \"ts\": " << num(static_cast<double>(s.start - origin_) / 1e3)
          << ", \"dur\": " << num(static_cast<double>(s.end - s.start) / 1e3)
          << ", \"args\": {\"item\": " << s.item << ", \"parent\": " << s.parent
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  std::uint64_t origin_;
  std::uint64_t item_ = 0;
  std::vector<span_rec> spans_;
  std::vector<int> stack_;
};

/// One span; also a stopwatch, so the untraced copy of the traced work can
/// read the same durations.
class scope {
 public:
  scope(tracer& t, const char* name)
      : t_(t), idx_(t.open(name)), start_(now_ns()) {}
  ~scope() { t_.close(idx_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  double elapsed_ms() const { return ms_between(start_, now_ns()); }

 private:
  tracer& t_;
  int idx_;
  std::uint64_t start_;
};

// ---------------------------------------------------------------------------
// What one process measured.

struct measurement {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double busy_s = 0.0;  // timed regions only; what --seconds bounds
  /// Timed chunks in input order. Every process of a run times the same
  /// inputs, so run.py can line chunks and items up across processes.
  struct chunk_rec {
    std::uint64_t work;     // units behind `throughput`
    double ms;
    std::size_t items_end;  // latency_ms.size() after this chunk
    double cal_ms;          // calibration around it (see calibrate_ms)
    double stolen_ms;       // stolen from the VM meanwhile (see stolen_ms)
  };
  std::vector<chunk_rec> chunks;
  std::vector<double> latency_ms;  // per item; pushed before its chunk
  std::vector<std::string> problems;  // correctness checks that did not hold
  std::map<std::string, double> layers;  // traced run only
  double setup_cal_ms = 0.0;  // calibration right after `ready`

  void chunk(std::uint64_t work, double ms) {
    chunks.push_back({work, ms, latency_ms.size(), 0.0, 0.0});
    busy_s += ms / 1e3;
  }
  void fail(const std::string& what) {
    ++failed;
    note(what);
  }
  void problem(const std::string& what) {
    problems.push_back(what);
    note(what);
  }

 private:
  std::size_t notes_ = 0;
  void note(const std::string& what) {
    if (notes_++ < 8) std::fprintf(stderr, "bench_detect: %s\n", what.c_str());
  }
};

/// Shares of the traced wall time per layer, plus the total attributed.
void attribute(measurement& m, const std::map<std::string, double>& layer_ms,
               double wall_ms) {
  double sum = 0.0;
  for (const auto& [name, ms] : layer_ms) {
    m.layers[name + ".share"] = wall_ms > 0 ? ms / wall_ms : 0.0;
    sum += ms;
  }
  m.layers["trace.wall_ms"] = wall_ms;
  m.layers["trace.attributed_share"] = wall_ms > 0 ? sum / wall_ms : 0.0;
}

double self_of(const std::map<std::string, layer_time>& t, const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_ms;
}

double total_of(const std::map<std::string, layer_time>& t, const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_ms;
}

std::uint64_t calls_of(const std::map<std::string, layer_time>& t,
                       const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0 : it->second.calls;
}

// ---------------------------------------------------------------------------
// The mirror: api::replay's steps (build, run, migrate/run, check, collect)
// driven through a bench-built executor, so each shows as its own span.

/// Counters a replay's report and verdict feed into the per-layer table.
struct replay_counters {
  std::uint64_t runs = 0;
  std::uint64_t steps = 0;
  std::uint64_t crashes = 0;
  std::uint64_t step_limit_hits = 0;
  std::uint64_t drain_steps = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t lost_persistence_runs = 0;
  std::uint64_t nvm_bytes = 0;
  std::uint64_t nodes = 0;
  std::uint64_t objects = 0;
  std::uint64_t inconclusive = 0;
  std::uint64_t synthesized = 0;
  std::vector<double> check_ms;
  std::vector<double> setup_us_single;
  std::vector<double> setup_us_sharded;
  int pool_workers = 0;

  void add(const api::scripted_outcome& o) {
    ++runs;
    steps += o.report.steps;
    crashes += o.report.crashes;
    step_limit_hits += o.report.hit_step_limit ? 1 : 0;
    drain_steps += o.report.drain_steps;
    max_pending = std::max(max_pending, o.report.max_pending_stores);
    lost_persistence_runs += o.report.lost_persistence ? 1 : 0;
    nvm_bytes += o.report.nvm_bytes;
    nodes += o.check.nodes;
    objects += o.check.objects;
    inconclusive += o.check.inconclusive ? 1 : 0;
    synthesized += o.check.synthesized_interval ? 1 : 0;
  }

  void report(measurement& m, const std::map<std::string, layer_time>& t) const {
    const double run_ms = total_of(t, "sim");
    const double check_total = total_of(t, "hist.check");
    m.layers["sim.run_ms"] = run_ms;
    m.layers["sim.steps"] = static_cast<double>(steps);
    m.layers["sim.ns_per_step"] =
        steps > 0 ? run_ms * 1e6 / static_cast<double>(steps) : 0.0;
    m.layers["sim.crashes"] = static_cast<double>(crashes);
    m.layers["sim.step_limit_hits"] = static_cast<double>(step_limit_hits);
    m.layers["wmm.drain_steps"] = static_cast<double>(drain_steps);
    m.layers["wmm.drain_share"] =
        steps > 0 ? static_cast<double>(drain_steps) / static_cast<double>(steps)
                  : 0.0;
    m.layers["wmm.max_pending_stores"] = static_cast<double>(max_pending);
    m.layers["nvm.lost_persistence_runs"] =
        static_cast<double>(lost_persistence_runs);
    m.layers["nvm.bytes"] =
        runs > 0 ? static_cast<double>(nvm_bytes) / static_cast<double>(runs)
                 : 0.0;
    m.layers["hist.check.self_ms"] = self_of(t, "hist.check");
    m.layers["hist.check.ms_tail"] = tail(check_ms);
    m.layers["hist.check.nodes"] = static_cast<double>(nodes);
    m.layers["hist.check.ns_per_node"] =
        nodes > 0 ? check_total * 1e6 / static_cast<double>(nodes) : 0.0;
    m.layers["hist.check.objects"] = static_cast<double>(objects);
    m.layers["hist.check.inconclusive"] = static_cast<double>(inconclusive);
    m.layers["hist.check.synthesized_intervals"] =
        static_cast<double>(synthesized);
    m.layers["api.executor.setup_us_p50.single"] =
        quantile(setup_us_single, 0.5);
    m.layers["api.executor.setup_us_p50.sharded"] =
        quantile(setup_us_sharded, 0.5);
    m.layers["api.executor.pool_workers"] = pool_workers;
  }
};

/// api::replay(s, {memo, model_salt}) re-enacted step by step. The steps
/// must stay those of replay_impl (src/api/replay.cpp); the campaign's traced
/// pass asserts verdict, node count and event count against api::replay's
/// outcome, so a drift shows as a failed run.
api::scripted_outcome mirror_replay(const api::scripted_scenario& s,
                                    tracer& tr, replay_counters& rc) {
  api::scripted_outcome out;
  std::unique_ptr<api::executor> ex;
  {
    scope sp(tr, "api.executor");
    api::executor::builder b;
    b.backend(s.backend)
        .procs(s.nprocs)
        .fail_policy(s.policy)
        .seed(s.sched_seed)
        .schedule(s.sched)
        .persist(s.persist)
        .visibility(s.visibility);
    if (!s.drain_steps.empty()) b.drain_at(s.drain_steps);
    if (s.backend == api::exec_backend::sharded) {
      b.shards(s.shards).placement(s.placement);
    }
    if (!s.crash_steps.empty()) b.crash_at(s.crash_steps);
    if (s.shared_cache) b.shared_cache();
    ex = b.build();
    for (const api::scenario_object& o : s.objects) {
      ex->add_as(o.id, o.kind, o.params);
    }
    for (const auto& [pid, ops] : s.scripts) ex->script(pid, ops);
    (s.backend == api::exec_backend::sharded ? rc.setup_us_sharded
                                             : rc.setup_us_single)
        .push_back(sp.elapsed_ms() * 1e3);
  }
  rc.pool_workers = std::max(rc.pool_workers, ex->pool_workers());
  {
    scope sp(tr, "sim");
    out.report = ex->run();
  }
  if (!s.migrations.empty() && !out.report.hit_step_limit) {
    {
      scope sp(tr, "api.executor");
      if (ex->backend() == api::exec_backend::sharded) {
        for (const auto& [id, shard] : s.migrations) ex->migrate(id, shard);
      }
      for (const auto& [pid, ops] : s.scripts) ex->script(pid, ops);
    }
    sim::run_report second;
    {
      scope sp(tr, "sim");
      second = ex->run();
    }
    out.report.steps = second.steps;
    out.report.drain_steps = second.drain_steps;
    out.report.max_pending_stores = second.max_pending_stores;
    out.report.crashes += second.crashes;
    out.report.hit_step_limit |= second.hit_step_limit;
    out.report.lost_persistence |= second.lost_persistence;
  }
  {
    scope sp(tr, "hist.check");
    hist::check_options opt;
    opt.model_salt = (static_cast<std::uint64_t>(s.visibility) << 8) |
                     static_cast<std::uint64_t>(s.persist);
    out.check = ex->check(opt);
    rc.check_ms.push_back(sp.elapsed_ms());
  }
  {
    scope sp(tr, "api.executor");
    out.events = ex->events();
    out.log_text = ex->log_text();
    ex.reset();
  }
  return out;
}

bool same_outcome(const api::scripted_outcome& a,
                  const api::scripted_outcome& b) {
  return a.check.ok == b.check.ok && a.check.nodes == b.check.nodes &&
         a.events.size() == b.events.size() &&
         a.report.hit_step_limit == b.report.hit_step_limit;
}

// ---------------------------------------------------------------------------
// Workloads.

class workload {
 public:
  virtual ~workload() = default;
  /// One-time set-up, before `ready`.
  virtual void setup() {}
  /// Untimed: let lazy set-up finish and caches fill.
  virtual void warm_up(measurement& m) = 0;
  /// Run the next timed chunk, appending to `m`.
  virtual void step(measurement& m) = 0;
  /// The fixed traced work, through trace_pass; fills the per-layer table.
  virtual void traced(measurement& m, const std::string& trace_path) = 0;
};

/// Timed inputs come from seed_of(seed, 0, i), the traced run's from the
/// same stream's start, and warm-up inputs from seed_of(seed, k_warm_up, i).
struct run_cfg {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  /// This is process `proc` of the run's `procs` (all time the same inputs);
  /// serve_soak splits its costly certificate checks between them.
  int proc = 0;
  int procs = 1;
};
constexpr std::uint64_t k_warm_up = 1000;

void write_trace(const tracer& tr, const std::string& path,
                 const std::string& workload, measurement& m) {
  if (!path.empty() && !tr.write_chrome(path, workload)) {
    m.problem("cannot write trace file " + path);
  }
}

/// The traced run's shape: the fixed work once untimed (caches and lazy
/// set-up), then untraced, traced into `on`, and untraced again. The
/// untraced passes bracket the traced one so that drift cancels out of
/// trace.overhead_ratio. `work(tr, traced)` must count into the caller's
/// counters only when `traced`.
void trace_pass(measurement& m, tracer& on,
                const std::function<void(tracer&, bool)>& work) {
  tracer off(false);
  work(off, false);
  const std::uint64_t t0 = now_ns();
  work(off, false);
  const std::uint64_t t1 = now_ns();
  work(on, true);
  const std::uint64_t t2 = now_ns();
  work(off, false);
  const std::uint64_t t3 = now_ns();
  const double untraced = (ms_between(t0, t1) + ms_between(t2, t3)) / 2;
  m.layers["trace.overhead_ratio"] =
      untraced > 0 ? ms_between(t1, t2) / untraced : 0.0;
}

// ---- campaign / models ----------------------------------------------------

class campaign_workload final : public workload {
 public:
  campaign_workload(const run_cfg& cfg, bool models)
      : cfg_(cfg), models_(models) {}

  void setup() override { kinds_ = api::object_registry::global().kinds(); }

  void warm_up(measurement& m) override {
    measurement scratch;
    run_pass(options(seed_of(cfg_.seed, k_warm_up, 0), cfg_.smoke ? 5 : 100),
             scratch);
    m.failed += scratch.failed;
  }

  void step(measurement& m) override {
    run_pass(options(seed_of(cfg_.seed, 0, pass_++), pass_iters()), m);
  }

  void traced(measurement& m, const std::string& trace_path) override {
    const fuzz::fuzz_options opt =
        options(seed_of(cfg_.seed, 0, 0), cfg_.smoke ? 10 : 1000);
    const fuzz::fuzz_stats ref = fuzz::run_fuzz(opt);
    m.attempted += ref.iterations;
    if (ref.failure) m.fail("campaign: " + ref.failure->message);

    tracer on(true);
    pass_counters pc;
    trace_pass(m, on, [&](tracer& tr, bool traced) {
      pass_counters scratch;
      emulate(opt, tr, traced ? pc : scratch);
    });
    if (pc.buckets != ref.coverage.distinct_buckets ||
        pc.replays != ref.replays) {
      m.problem("campaign: traced pass diverged from run_fuzz (buckets " +
                std::to_string(pc.buckets) + " vs " +
                std::to_string(ref.coverage.distinct_buckets) + ", replays " +
                std::to_string(pc.replays) + " vs " +
                std::to_string(ref.replays) + ")");
    }
    for (const std::string& d : pc.drift) m.problem(d);

    const auto t = on.by_name();
    const double wall = total_of(t, "fuzz.iteration");
    const double mirror = total_of(t, "mirror");
    const double differ = total_of(t, "fuzz.differ");
    const double extra = differ - mirror;
    const double n = static_cast<double>(std::max<std::uint64_t>(1, pc.scenarios));
    m.layers["fuzz.gen.calls"] = static_cast<double>(calls_of(t, "fuzz.gen"));
    m.layers["fuzz.gen.self_ms"] = self_of(t, "fuzz.gen");
    m.layers["fuzz.differ.replays_per_scenario"] =
        static_cast<double>(pc.replays) / n;
    m.layers["fuzz.differ.extra_ms"] = extra;
    m.layers["fuzz.differ.sharded_share"] =
        differ > 0 ? pc.sharded_oracle_ms / differ : 0.0;
    m.layers["fuzz.coverage.self_ms"] = self_of(t, "fuzz.coverage");
    m.layers["fuzz.coverage.buckets"] = static_cast<double>(pc.buckets);
    pc.rc.report(m, t);
    // The mirror is extra work the campaign does not do: the campaign's own
    // wall time is the traced wall minus it, and the differ's share is its
    // span minus the primary replay the mirror re-enacts.
    attribute(m,
              {{"fuzz.gen", self_of(t, "fuzz.gen")},
               {"fuzz.differ", extra},
               {"api.executor", total_of(t, "api.executor")},
               {"sim", total_of(t, "sim")},
               {"hist.check", total_of(t, "hist.check")},
               {"fuzz.coverage", self_of(t, "fuzz.coverage")}},
              wall - mirror);
    write_trace(on, trace_path, cfg_.workload, m);
  }

 private:
  struct pass_counters {
    std::uint64_t scenarios = 0;
    std::uint64_t replays = 0;
    std::size_t buckets = 0;
    double sharded_oracle_ms = 0.0;
    replay_counters rc;
    std::vector<std::string> drift;
  };

  std::uint64_t pass_iters() const { return cfg_.smoke ? 10 : 250; }

  /// fuzz_main's per-push defaults (all kinds, unsteered, variant diffs on,
  /// shrinking on, serial checks); models adds the mixed schedule,
  /// persistency and visibility pools.
  fuzz::fuzz_options options(std::uint64_t base, std::uint64_t iters) const {
    fuzz::fuzz_options opt;
    opt.base_seed = base;
    opt.iterations = iters;
    if (models_) {
      opt.gen.sched_pool = {"round_robin", "uniform_random", "pct"};
      opt.gen.persist_pool = {"strict", "buffered"};
      opt.gen.visibility_pool = {"sc", "tso", "pso"};
    }
    return opt;
  }

  void run_pass(const fuzz::fuzz_options& opt, measurement& m) {
    std::vector<std::uint64_t> marks;
    marks.reserve(opt.iterations + 1);
    const std::uint64_t t0 = now_ns();
    const fuzz::fuzz_stats st = fuzz::run_fuzz(
        opt, [&](std::uint64_t, std::uint64_t, const std::string&) {
          marks.push_back(now_ns());
        });
    const std::uint64_t t1 = now_ns();
    marks.push_back(t1);
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      m.latency_ms.push_back(ms_between(marks[i], marks[i + 1]));
    }
    m.chunk(st.iterations, ms_between(t0, t1));
    m.attempted += st.iterations;
    if (st.failure) {
      m.fail("campaign rejected a scenario at iteration " +
             std::to_string(st.failure->iteration) + " (base seed " +
             std::to_string(opt.base_seed) + "): " + st.failure->message);
    }
  }

  /// run_fuzz's iteration loop with steering off, from outside: generate,
  /// check_scenario, bucket — plus the primary replayed once more through
  /// the mirror, which must agree with check_scenario's own replay.
  void emulate(const fuzz::fuzz_options& opt, tracer& tr, pass_counters& pc) {
    fuzz::gen_config gen = opt.gen;
    if (gen.object_kind_pool.empty() && gen.max_objects > 1) {
      gen.object_kind_pool = kinds_;
    }
    fuzz::coverage_map cov;
    // run_fuzz's per-strategy and per-model bucket sets: kept so that the
    // coverage span costs what the campaign's bookkeeping costs.
    std::map<std::string, std::set<std::string>> by_sched, by_vis;
    for (std::uint64_t iter = 0; iter < opt.iterations; ++iter) {
      tr.set_item(iter);
      scope it(tr, "fuzz.iteration");
      const std::uint64_t seed = fuzz::iteration_seed(opt.base_seed, iter);
      api::scripted_scenario s;
      {
        scope sp(tr, "fuzz.gen");
        s = fuzz::generate(seed, kinds_[iter % kinds_.size()], gen);
      }
      api::scripted_outcome primary;
      std::string failure;
      {
        scope sp(tr, "fuzz.differ");
        failure = fuzz::check_scenario(s, opt.diff, &pc.replays, &primary,
                                       opt.placement_equiv, opt.check_jobs);
        if (s.shards > 1) pc.sharded_oracle_ms += sp.elapsed_ms();
      }
      ++pc.scenarios;
      pc.rc.add(primary);
      {
        scope sp(tr, "mirror");
        const api::scripted_outcome mo = mirror_replay(s, tr, pc.rc);
        if (!same_outcome(mo, primary) && pc.drift.size() < 4) {
          pc.drift.push_back(
              "mirror drift at iteration " + std::to_string(iter) +
              ": verdict/nodes/events " + std::to_string(mo.check.ok) + "/" +
              std::to_string(mo.check.nodes) + "/" +
              std::to_string(mo.events.size()) + " vs api::replay " +
              std::to_string(primary.check.ok) + "/" +
              std::to_string(primary.check.nodes) + "/" +
              std::to_string(primary.events.size()));
        }
      }
      if (!failure.empty()) break;
      {
        scope sp(tr, "fuzz.coverage");
        const fuzz::bucket_signature b = fuzz::bucket_of(s, primary);
        cov.record(b);
        by_sched[b.sched].insert(b.key());
        by_vis[b.vis].insert(b.key());
      }
    }
    pc.buckets = cov.distinct();
  }

  run_cfg cfg_;
  bool models_;
  std::vector<std::string> kinds_;
  std::uint64_t pass_ = 0;
};

// ---- deep_check -----------------------------------------------------------

/// Single-object, single-backend scenarios of 40-64 ops, one row shape per
/// item in rotation. The shapes keep the checker's cost per scenario within
/// a few milliseconds: its search is heavy-tailed in concurrency (random
/// stack 6x10 scenarios: p50 0.9 ms, p99 390 ms, max 790 ms), and a tail
/// like that made throughput vary by 20-90% between seeds at any run length
/// this benchmark can afford.
struct check_shape {
  const char* kind;
  int procs;
  int ops;
  hist::value_t values;
  bool crashes;
};
constexpr check_shape k_shapes[] = {{"stack", 4, 10, 8, true},
                                    {"cas", 4, 16, 2, false},
                                    {"reg", 8, 8, 8, false}};

class deep_check_workload final : public workload {
 public:
  explicit deep_check_workload(const run_cfg& cfg) : cfg_(cfg) {}

  void warm_up(measurement& m) override {
    measurement scratch;
    for (std::uint64_t i = 0; i < 3; ++i) {
      run_item(seed_of(cfg_.seed, k_warm_up, 0), i, scratch);
    }
    m.failed += scratch.failed;
  }

  /// One chunk: the next item of each shape.
  void step(measurement& m) override {
    double ms = 0.0;
    for (int k = 0; k < 3; ++k) ms += run_item(seed_of(cfg_.seed, 0, 0), next_++, m);
    m.chunk(3, ms);
  }

  void traced(measurement& m, const std::string& trace_path) override {
    const std::uint64_t n = cfg_.smoke ? 3 : 600;
    const std::uint64_t base = seed_of(cfg_.seed, 0, 0);
    std::vector<api::scripted_scenario> items;
    std::vector<api::scripted_outcome> refs;
    for (std::uint64_t i = 0; i < n; ++i) {
      items.push_back(scenario(base, i));
      refs.push_back(api::replay(items.back()));
      ++m.attempted;
      if (!verdict_ok(refs.back())) {
        m.fail("deep_check: item " + std::to_string(i) + " " +
               refs.back().check.message);
      }
    }
    tracer on(true);
    replay_counters rc;
    trace_pass(m, on, [&](tracer& tr, bool traced) {
      replay_counters scratch;
      replay_counters& c = traced ? rc : scratch;
      for (std::uint64_t i = 0; i < n; ++i) {
        tr.set_item(i);
        scope it(tr, "check.item");
        const api::scripted_outcome o = mirror_replay(items[i], tr, c);
        c.add(o);
        if (traced && !same_outcome(o, refs[i])) {
          m.problem("deep_check: mirror drift at item " + std::to_string(i));
        }
      }
    });

    const auto t = on.by_name();
    rc.report(m, t);
    attribute(m,
              {{"api.executor", total_of(t, "api.executor")},
               {"sim", total_of(t, "sim")},
               {"hist.check", total_of(t, "hist.check")}},
              total_of(t, "check.item"));
    write_trace(on, trace_path, cfg_.workload, m);
  }

 private:
  static bool verdict_ok(const api::scripted_outcome& o) {
    return !o.report.hit_step_limit && o.check.ok && !o.check.inconclusive;
  }

  static api::scripted_scenario scenario(std::uint64_t base, std::uint64_t i) {
    const check_shape& sh = k_shapes[i % 3];
    fuzz::gen_config g;
    g.min_procs = g.max_procs = sh.procs;
    g.min_ops = g.max_ops = sh.ops;
    g.value_range = sh.values;
    g.crashes = sh.crashes;
    g.max_objects = 1;
    g.max_shards = 1;
    g.allow_sharded_backend = false;
    g.allow_migrations = false;
    return fuzz::generate(fuzz::iteration_seed(base, i), sh.kind, g);
  }

  /// Generation is untimed; returns the replay's milliseconds.
  double run_item(std::uint64_t base, std::uint64_t i, measurement& m) {
    const api::scripted_scenario s = scenario(base, i);
    const std::uint64_t t0 = now_ns();
    const api::scripted_outcome o = api::replay(s);
    const double ms = ms_between(t0, now_ns());
    m.latency_ms.push_back(ms);
    ++m.attempted;
    if (!verdict_ok(o)) {
      m.fail("deep_check: " + std::string(k_shapes[i % 3].kind) + " item " +
             std::to_string(i) + " (base " + std::to_string(base) + "): " +
             (o.report.hit_step_limit ? std::string("step limit")
                                      : o.check.message));
    }
    return ms;
  }

  run_cfg cfg_;
  std::uint64_t next_ = 0;
};

// ---- sim_throughput ---------------------------------------------------------

/// The E6 program, cut into items: 8 processes doing fetch-and-adds
/// round-robin over 8 counters on the single backend, unchecked (far above
/// the checker's cap). Outputs are checked directly instead: each counter's
/// responses must be exactly 0..n-1.
class sim_workload final : public workload {
 public:
  explicit sim_workload(const run_cfg& cfg) : cfg_(cfg) {}

  static constexpr int k_procs = 8;
  static constexpr int k_objects = 8;

  void warm_up(measurement& m) override {
    measurement scratch;
    tracer off(false);
    replay_counters rc;
    for (std::uint64_t i = 0; i < 3; ++i) {
      run_item(seed_of(cfg_.seed, k_warm_up, i), off, rc, scratch);
    }
    m.failed += scratch.failed;
  }

  void step(measurement& m) override {
    tracer off(false);
    replay_counters rc;
    run_item(seed_of(cfg_.seed, 0, next_++), off, rc, m);
  }

  void traced(measurement& m, const std::string& trace_path) override {
    const std::uint64_t n = cfg_.smoke ? 2 : 100;
    tracer on(true);
    replay_counters rc;
    trace_pass(m, on, [&](tracer& tr, bool traced) {
      replay_counters scratch_rc;
      measurement scratch;
      for (std::uint64_t i = 0; i < n; ++i) {
        tr.set_item(i);
        scope it(tr, "sim.item");
        run_item(seed_of(cfg_.seed, 0, i), tr, traced ? rc : scratch_rc,
                 traced ? m : scratch);
      }
    });

    const auto t = on.by_name();
    rc.report(m, t);
    attribute(m,
              {{"api.executor", total_of(t, "api.executor")},
               {"sim", total_of(t, "sim")}},
              total_of(t, "sim.item"));
    write_trace(on, trace_path, cfg_.workload, m);
  }

 private:
  int ops_per_proc() const { return cfg_.smoke ? 50 : 500; }

  /// One item; build/add/script, run and teardown are timed, the output
  /// check between them is not.
  void run_item(std::uint64_t seed, tracer& tr, replay_counters& rc,
                measurement& m) {
    const int ops = ops_per_proc();
    std::uint64_t timed = 0;
    std::unique_ptr<api::executor> ex;
    std::vector<api::counter> objs;
    {
      scope sp(tr, "api.executor");
      const std::uint64_t t0 = now_ns();
      ex = api::executor::builder()
               .backend(api::exec_backend::single)
               .procs(k_procs)
               .seed(seed)
               .max_steps(1'000'000'000ULL)
               .build();
      for (int i = 0; i < k_objects; ++i) objs.push_back(ex->add_counter());
      for (int p = 0; p < k_procs; ++p) {
        std::vector<hist::op_desc> script;
        script.reserve(static_cast<std::size_t>(ops));
        for (int i = 0; i < ops; ++i) {
          script.push_back(objs[static_cast<std::size_t>((p + i) % k_objects)].add(1));
        }
        ex->script(p, std::move(script));
      }
      const std::uint64_t t1 = now_ns();
      timed += t1 - t0;
      rc.setup_us_single.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    sim::run_report rep;
    {
      scope sp(tr, "sim");
      const std::uint64_t t0 = now_ns();
      rep = ex->run();
      timed += now_ns() - t0;
    }
    ++rc.runs;
    rc.steps += rep.steps;
    rc.crashes += rep.crashes;
    rc.step_limit_hits += rep.hit_step_limit ? 1 : 0;
    rc.nvm_bytes += rep.nvm_bytes;

    ++m.attempted;
    if (rep.hit_step_limit || !responses_exact(*ex, objs, ops)) {
      m.fail("sim_throughput: item with seed " + std::to_string(seed) +
             (rep.hit_step_limit ? " hit the step limit"
                                 : " returned wrong fetch-and-add values"));
    }
    {
      scope sp(tr, "api.executor");
      const std::uint64_t t0 = now_ns();
      ex.reset();
      timed += now_ns() - t0;
    }
    m.latency_ms.push_back(static_cast<double>(timed) / 1e6);
    m.chunk(static_cast<std::uint64_t>(k_procs) * static_cast<std::uint64_t>(ops),
            static_cast<double>(timed) / 1e6);
  }

  /// Fetch-and-add returns the old value, so the responses on a counter
  /// that received n adds of 1 are exactly 0..n-1 in some order.
  static bool responses_exact(const api::executor& ex,
                              const std::vector<api::counter>& objs, int ops) {
    std::map<std::uint32_t, std::vector<hist::value_t>> seen;
    for (const hist::event& e : ex.events()) {
      if (e.kind == hist::event_kind::response) seen[e.desc.object].push_back(e.value);
    }
    const std::size_t per_object =
        static_cast<std::size_t>(k_procs) * static_cast<std::size_t>(ops) / k_objects;
    for (const api::counter& c : objs) {
      std::vector<hist::value_t>& v = seen[c.id()];
      if (v.size() != per_object) return false;
      std::sort(v.begin(), v.end());
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i] != static_cast<hist::value_t>(i)) return false;
      }
    }
    return true;
  }

  run_cfg cfg_;
  std::uint64_t next_ = 0;
};

// ---- serve_soak -------------------------------------------------------------

/// bench_serve's soak: sessions × ops counter increments over 4 shards with
/// crash injection and rebalancing, half the traffic on the shard-0 cluster
/// at ≤40 ops per object (the checker's cap). A closed loop in waves of
/// ops/40 ops per session, one pump() per wave. Latency is wall-clock
/// submit → completion callback.
class serve_workload final : public workload {
 public:
  explicit serve_workload(const run_cfg& cfg) : cfg_(cfg) {}

  /// The warm-up pass's server (objects and sessions registered) is the
  /// set-up; timed passes build theirs untimed.
  void setup() override { warm_server_ = build(seed_of(cfg_.seed, k_warm_up, 0)); }

  void warm_up(measurement& m) override {
    measurement scratch;
    tracer off(false);
    pass_stats ps;
    soak(std::move(warm_server_), off, scratch, ps, false);
    m.failed += scratch.failed;
    for (const std::string& p : scratch.problems) m.problem(p);
  }

  void step(measurement& m) override {
    tracer off(false);
    pass_stats ps;
    // Each pass's certificate is checked by one process of the run.
    const bool certify = static_cast<int>(pass_ % cfg_.procs) == cfg_.proc;
    soak(build(seed_of(cfg_.seed, 0, pass_++)), off, m, ps, certify);
  }

  void traced(measurement& m, const std::string& trace_path) override {
    const std::uint64_t seed = seed_of(cfg_.seed, 0, 0);
    tracer on(true);
    pass_stats ref, ps;  // the first untraced pass, the traced pass
    int untraced = 0;
    trace_pass(m, on, [&](tracer& tr, bool traced) {
      scope all(tr, "serve.soak");
      std::unique_ptr<soak_server> srv;
      {
        scope sp(tr, "serve.setup");
        srv = build(seed);
      }
      measurement scratch;
      pass_stats later;
      soak(std::move(srv), tr, traced ? m : scratch,
           traced ? ps : (untraced++ == 0 ? ref : later), true);
      if (!traced) {
        m.failed += scratch.failed;
        for (const std::string& p : scratch.problems) m.problem(p);
      }
    });
    if (ps.st.rounds != ref.st.rounds || ps.st.steps != ref.st.steps ||
        ps.st.crashes != ref.st.crashes ||
        ps.st.moves.size() != ref.st.moves.size()) {
      m.problem("serve_soak: the traced pass did not replay the untraced one");
    }

    const auto t = on.by_name();
    m.layers["serve.submit_ns_p50"] = quantile(ps.submit_ns, 0.5);
    m.layers["serve.pump.self_ms"] = self_of(t, "serve.pump");
    m.layers["serve.pump.calls"] = static_cast<double>(calls_of(t, "serve.pump"));
    m.layers["serve.drain_ms"] = total_of(t, "serve.drain");
    m.layers["serve.check_ms"] = total_of(t, "serve.check");
    m.layers["serve.rounds"] = static_cast<double>(ps.st.rounds);
    m.layers["serve.mean_batch_ops"] = ps.st.mean_batch_ops;
    m.layers["serve.moves"] = static_cast<double>(ps.st.moves.size());
    m.layers["serve.crashes"] = static_cast<double>(ps.st.crashes);
    m.layers["serve.steps"] = static_cast<double>(ps.st.steps);
    m.layers["nvm.bytes"] = static_cast<double>(ps.st.nvm_bytes);
    attribute(m,
              {{"serve.setup", total_of(t, "serve.setup")},
               {"serve.submit", total_of(t, "serve.submit")},
               {"serve.pump", total_of(t, "serve.pump") + total_of(t, "serve.drain")},
               {"serve.check", total_of(t, "serve.check")}},
              total_of(t, "serve.soak"));
    write_trace(on, trace_path, cfg_.workload, m);
  }

 private:
  static constexpr int k_shards = 4;

  struct soak_server {
    std::unique_ptr<serve::server> srv;
    std::vector<api::counter> objs;
    std::vector<serve::session> sessions;
  };

  struct pass_stats {
    serve::stats st;
    std::vector<double> submit_ns;
  };

  int sessions() const { return cfg_.smoke ? 8 : 32; }
  int ops() const { return cfg_.smoke ? 250 : 2000; }
  int hot_count() const {
    return std::max(k_shards, (sessions() * ops() / 2 + 39) / 40);
  }
  int objects() const { return hot_count() * k_shards; }
  int per_wave() const { return std::max(1, ops() / 40); }

  std::unique_ptr<soak_server> build(std::uint64_t seed) const {
    auto s = std::make_unique<soak_server>();
    const std::size_t batch = std::max<std::size_t>(
        256, static_cast<std::size_t>(sessions()) *
                 static_cast<std::size_t>(per_wave()));
    s->srv = serve::server::builder()
                 .shards(k_shards)
                 .procs(8)
                 .seed(seed)
                 .crash_random(fuzz::iteration_seed(seed, 1), 0.0005, 2)
                 .batch_max_ops(batch)
                 .queue_high_water(1u << 20)
                 .session_tokens(1e9, 1e9)
                 .rebalance({.enabled = true,
                             .window = 4,
                             .check_every = 4,
                             .hot_ratio = 1.3,
                             .sustain = 2,
                             .max_moves = 16})
                 .build();
    s->objs.reserve(static_cast<std::size_t>(objects()));
    for (int i = 0; i < objects(); ++i) s->objs.push_back(s->srv->add_counter());
    for (int i = 0; i < sessions(); ++i) {
      s->sessions.push_back(s->srv->open_session());
    }
    return s;
  }

  /// One soak pass; the submit/pump/drain loop is timed, the invariant and
  /// (when `certify`) certificate checks after it are not.
  void soak(std::unique_ptr<soak_server> s, tracer& tr, measurement& m,
            pass_stats& ps, bool certify) {
    const int n_sessions = sessions();
    const int n_ops = ops();
    const int n_objects = objects();
    const int hot = hot_count();
    // Even submits hit the hot cluster, odd submits spread over the rest.
    auto target_of = [&](int sess, int i) -> const api::counter& {
      const int stride = sess * (n_ops / 2) + i / 2;
      if (i % 2 == 0) {
        return s->objs[static_cast<std::size_t>(stride % hot) * k_shards];
      }
      const int j = stride % (n_objects - hot);
      const int id = (j / (k_shards - 1)) * k_shards + 1 + (j % (k_shards - 1));
      return s->objs[static_cast<std::size_t>(id)];
    };

    const std::size_t total = static_cast<std::size_t>(n_sessions) *
                              static_cast<std::size_t>(n_ops);
    std::vector<std::uint8_t> seen(total + 1, 0);
    std::vector<std::uint64_t> last(
        static_cast<std::size_t>(n_sessions) * static_cast<std::size_t>(n_objects), 0);
    // Latency per op, indexed by submission order (identical in every
    // process of a run, since the server is deterministic).
    std::vector<double> lat(total, 0.0);
    std::uint64_t dups = 0, order_violations = 0, callbacks = 0, admitted = 0;
    const bool trace_submits = tr.on();

    const std::uint64_t t0 = now_ns();
    {
      scope pass(tr, "serve.pass");
      std::uint64_t wave_no = 0;
      std::size_t k = 0;
      for (int base = 0; base < n_ops; base += per_wave()) {
        tr.set_item(wave_no++);
        const int end = std::min(n_ops, base + per_wave());
        {
          scope sp(tr, "serve.submit");
          for (int sess = 0; sess < n_sessions; ++sess) {
            serve::session& session = s->sessions[static_cast<std::size_t>(sess)];
            for (int i = base; i < end; ++i, ++k) {
              const std::uint64_t at = now_ns();
              const serve::submit_status st = session.submit(
                  target_of(sess, i).add(1),
                  [&, at, k](const serve::completion& c) {
                    lat[k] = ms_between(at, now_ns());
                    ++callbacks;
                    if (c.ticket >= seen.size() || seen[c.ticket]++ != 0) ++dups;
                    std::uint64_t& prev =
                        last[(c.session % static_cast<std::uint64_t>(n_sessions)) *
                                 static_cast<std::size_t>(n_objects) +
                             c.object % static_cast<std::uint32_t>(n_objects)];
                    if (c.ticket <= prev) ++order_violations;
                    prev = c.ticket;
                  });
              if (trace_submits) {
                ps.submit_ns.push_back(static_cast<double>(now_ns() - at));
              }
              if (serve::admitted(st)) ++admitted;
            }
          }
        }
        scope sp(tr, "serve.pump");
        s->srv->pump();
      }
      scope sp(tr, "serve.drain");
      s->srv->drain();
    }
    const double ms = ms_between(t0, now_ns());
    // Every 16th op: a pass completes 64,000 of them.
    for (std::size_t i = 0; i < total; i += 16) m.latency_ms.push_back(lat[i]);
    m.chunk(callbacks, ms);
    m.attempted += total;

    ps.st = s->srv->snapshot();
    const std::uint64_t lost = admitted - std::min(admitted, callbacks);
    const std::uint64_t bad = (total - admitted) + lost + dups + order_violations;
    if (bad != 0 || ps.st.completed != admitted || ps.st.inflight != 0) {
      m.failed += std::max<std::uint64_t>(bad, 1);
      m.problem("serve_soak: " + std::to_string(total - admitted) +
                " not admitted, " + std::to_string(lost) + " lost, " +
                std::to_string(dups) + " duplicated, " +
                std::to_string(order_violations) + " out of order");
    }
    // The soak's shape: crashes were survived and the skew moved objects.
    if (ps.st.crashes < 1) m.problem("serve_soak: no injected crash survived");
    if (ps.st.moves.empty()) m.problem("serve_soak: the skew triggered no move");
    if (!certify) return;
    hist::check_result cr;
    {
      scope sp(tr, "serve.check");
      cr = s->srv->check();
    }
    if (!cr.ok || cr.objects != static_cast<std::size_t>(n_objects)) {
      m.failed += admitted;
      m.problem("serve_soak: certificate failed (" + cr.message + ")");
    }
  }

  run_cfg cfg_;
  std::unique_ptr<soak_server> warm_server_;
  std::uint64_t pass_ = 0;
};

// ---- hunt -------------------------------------------------------------------

/// The Theorem-2 counterexamples (auxiliary state withheld) registered under
/// new names as if they were detectable, so the generator arms crashes for
/// them: a planted bug every hunt must find and shrink. The queue is left
/// out: a crash-armed stripped queue can make replay throw out of the
/// library instead of failing the oracle, which ends the campaign.
const char* const k_planted[] = {"counter", "reg", "cas", "swap", "stack"};

class hunt_workload final : public workload {
 public:
  explicit hunt_workload(const run_cfg& cfg) : cfg_(cfg) {}

  void setup() override {
    api::object_registry& reg = api::object_registry::global();
    for (const char* k : k_planted) {
      api::kind_info info = reg.at(std::string("stripped_") + k);
      info.name = std::string("planted_") + k;
      info.detectable = true;
      if (!reg.contains(info.name)) reg.add(std::move(info));
    }
  }

  void warm_up(measurement& m) override {
    measurement scratch;
    for (std::uint64_t i = 0; i < 5; ++i) {
      hunt(seed_of(cfg_.seed, k_warm_up, i), i, scratch);
    }
    m.failed += scratch.failed;
  }

  void step(measurement& m) override {
    hunt(seed_of(cfg_.seed, 0, next_), next_, m);
    ++next_;
  }

  void traced(measurement& m, const std::string& trace_path) override {
    const std::uint64_t n = cfg_.smoke ? 5 : 150;
    std::vector<fuzz::fuzz_stats> refs;
    std::vector<double> repro_ops;
    for (std::uint64_t i = 0; i < n; ++i) {
      refs.push_back(fuzz::run_fuzz(options(seed_of(cfg_.seed, 0, i), i)));
      ++m.attempted;
      if (!refs.back().failure) {
        m.fail("hunt " + std::to_string(i) + " missed its planted bug");
      } else {
        repro_ops.push_back(
            static_cast<double>(refs.back().failure->shrunk.total_ops()));
      }
    }
    tracer on(true);
    hunt_counters hc;
    trace_pass(m, on, [&](tracer& tr, bool traced) {
      hunt_counters scratch;
      for (std::uint64_t i = 0; i < n; ++i) {
        tr.set_item(i);
        emulate(options(seed_of(cfg_.seed, 0, i), i), refs[i], tr,
                traced ? hc : scratch, m);
      }
    });

    const auto t = on.by_name();
    const double wall = total_of(t, "fuzz.hunt");
    const double dn = static_cast<double>(n);
    m.layers["fuzz.gen.calls"] = static_cast<double>(calls_of(t, "fuzz.gen"));
    m.layers["fuzz.gen.self_ms"] = self_of(t, "fuzz.gen");
    m.layers["fuzz.coverage.self_ms"] = self_of(t, "fuzz.coverage");
    m.layers["fuzz.shrink.self_ms"] = self_of(t, "fuzz.shrink");
    m.layers["fuzz.shrink.total_ms"] = total_of(t, "fuzz.shrink");
    m.layers["fuzz.shrink.candidates"] = static_cast<double>(hc.candidates);
    m.layers["fuzz.shrink.accepted"] = static_cast<double>(hc.accepted);
    m.layers["fuzz.shrink.accept_ratio"] =
        hc.candidates > 0 ? static_cast<double>(hc.accepted) /
                                static_cast<double>(hc.candidates)
                          : 0.0;
    m.layers["fuzz.shrink.find_ms"] = hc.find_ms / dn;
    m.layers["fuzz.shrink.iterations_to_find"] =
        static_cast<double>(hc.iterations) / dn;
    m.layers["fuzz.shrink.repro_ops_mean"] = mean(repro_ops);
    attribute(m,
              {{"fuzz.gen", self_of(t, "fuzz.gen")},
               {"fuzz.differ", self_of(t, "fuzz.differ")},
               {"fuzz.coverage", self_of(t, "fuzz.coverage")},
               {"fuzz.shrink", self_of(t, "fuzz.shrink")}},
              wall);
    write_trace(on, trace_path, cfg_.workload, m);
  }

 private:
  struct hunt_counters {
    std::uint64_t candidates = 0;
    std::uint64_t accepted = 0;
    std::uint64_t iterations = 0;
    double find_ms = 0.0;
  };

  static constexpr std::uint64_t k_cap = 5000;  // iterations per hunt

  fuzz::fuzz_options options(std::uint64_t base, std::uint64_t i) const {
    fuzz::fuzz_options opt;
    opt.base_seed = base;
    opt.iterations = k_cap;
    opt.kinds = {std::string("planted_") + k_planted[i % 5]};
    // Single-shard scenarios only. The sharded executor is campaign's and
    // serve_soak's subject; in the hunt its per-replay thread pools made the
    // tail latency follow the host's scheduling, not the shrinker.
    opt.gen.max_shards = 1;
    return opt;
  }

  void hunt(std::uint64_t base, std::uint64_t i, measurement& m) {
    const fuzz::fuzz_options opt = options(base, i);
    const std::uint64_t t0 = now_ns();
    const fuzz::fuzz_stats st = fuzz::run_fuzz(opt);
    const double ms = ms_between(t0, now_ns());
    m.latency_ms.push_back(ms);
    m.chunk(1, ms);
    ++m.attempted;
    const std::string what =
        opt.kinds.front() + " hunt (base seed " + std::to_string(base) + ")";
    if (!st.failure) {
      m.fail(what + " missed its planted bug in " + std::to_string(k_cap) +
             " iterations");
      return;
    }
    // The shrunk repro must survive its own dump format and still fail.
    const std::string dumped = api::dump(st.failure->shrunk);
    try {
      const api::scripted_scenario back = api::parse_scenario(dumped);
      if (api::dump(back) != dumped) {
        m.fail(what + ": shrunk dump does not round-trip");
      } else if (fuzz::check_scenario(back).empty()) {
        m.fail(what + ": shrunk repro no longer fails");
      }
    } catch (const std::exception& e) {
      m.fail(what + ": shrunk dump does not parse: " + e.what());
    }
  }

  /// run_fuzz's loop with shrinking, from outside: it must stop at the same
  /// iteration and shrink to the same scenario as the reference run.
  void emulate(const fuzz::fuzz_options& opt, const fuzz::fuzz_stats& ref,
               tracer& tr, hunt_counters& hc, measurement& m) {
    scope h(tr, "fuzz.hunt");
    fuzz::gen_config gen = opt.gen;
    gen.object_kind_pool = opt.kinds;
    fuzz::coverage_map cov;
    std::uint64_t replays = 0;
    for (std::uint64_t iter = 0; iter < opt.iterations; ++iter) {
      api::scripted_scenario s;
      {
        scope sp(tr, "fuzz.gen");
        s = fuzz::generate(fuzz::iteration_seed(opt.base_seed, iter),
                           opt.kinds.front(), gen);
      }
      api::scripted_outcome primary;
      std::string failure;
      {
        scope sp(tr, "fuzz.differ");
        failure = fuzz::check_scenario(s, opt.diff, &replays, &primary);
      }
      if (failure.empty()) {
        scope sp(tr, "fuzz.coverage");
        cov.record(fuzz::bucket_of(s, primary));
        continue;
      }
      hc.find_ms += h.elapsed_ms();
      hc.iterations += iter + 1;
      api::scripted_scenario shrunk;
      {
        scope sp(tr, "fuzz.shrink");
        shrunk = fuzz::shrink(s, [&](const api::scripted_scenario& c) {
          scope oracle(tr, "fuzz.differ");
          ++hc.candidates;
          const bool fails = !fuzz::check_scenario(c, opt.diff, &replays).empty();
          if (fails) ++hc.accepted;
          return fails;
        });
      }
      {
        scope sp(tr, "fuzz.differ");
        fuzz::check_scenario(shrunk, opt.diff, &replays);
      }
      if (!ref.failure || ref.failure->iteration != iter ||
          api::dump(ref.failure->shrunk) != api::dump(shrunk)) {
        m.problem("hunt: traced re-enactment diverged from run_fuzz at base "
                  "seed " + std::to_string(opt.base_seed));
      }
      return;
    }
  }

  run_cfg cfg_;
  std::uint64_t next_ = 0;
};

std::unique_ptr<workload> make_workload(const run_cfg& cfg) {
  if (cfg.workload == "campaign") return std::make_unique<campaign_workload>(cfg, false);
  if (cfg.workload == "models") return std::make_unique<campaign_workload>(cfg, true);
  if (cfg.workload == "deep_check") return std::make_unique<deep_check_workload>(cfg);
  if (cfg.workload == "sim_throughput") return std::make_unique<sim_workload>(cfg);
  if (cfg.workload == "serve_soak") return std::make_unique<serve_workload>(cfg);
  if (cfg.workload == "hunt") return std::make_unique<hunt_workload>(cfg);
  return nullptr;
}

const char* const k_workloads[] = {"campaign",       "models",     "deep_check",
                                   "sim_throughput", "serve_soak", "hunt"};

// ---------------------------------------------------------------------------
// Output.

/// Peak resident set of this process image. VmHWM, not ru_maxrss: Linux
/// carries ru_maxrss across execve, so a child of a large parent (python)
/// would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The parts of the host block only the binary knows; run.py adds nproc and
/// the commit.
std::string host_json() {
  int pool = 0;
  {
    auto ex = api::executor::builder()
                  .backend(api::exec_backend::sharded)
                  .shards(4)
                  .build();
    pool = ex->pool_workers();
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"affinity_cpus\": " << affinity
     << ", \"pool_workers\": " << pool
     << ", \"build_type\": \"" << DETECT_PERF_BUILD_TYPE << "\""
     << ", \"compiler\": \""
#if defined(__clang__)
     << "clang "
#elif defined(__GNUC__)
     << "gcc "
#endif
     << json_escaped(__VERSION__) << "\"}";
  return os.str();
}

std::string result_json(const run_cfg& cfg, const measurement& m,
                        bool traced) {
  std::ostringstream os;
  os << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
     << ", \"traced\": " << (traced ? "true" : "false")
     << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failed
     << ", \"busy_s\": " << num(m.busy_s)
     << ", \"setup_cal_ms\": " << num(m.setup_cal_ms)
     << ", \"peak_rss_mb\": " << num(peak_rss_mb()) << ", \"problems\": [";
  for (std::size_t i = 0; i < m.problems.size(); ++i) {
    os << (i != 0 ? ", " : "") << "\"" << json_escaped(m.problems[i]) << "\"";
  }
  os << "], \"layers\": {";
  bool first = true;
  for (const auto& [name, v] : m.layers) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << num(v);
    first = false;
  }
  os << "}, \"chunks\": [";
  for (std::size_t i = 0; i < m.chunks.size(); ++i) {
    const measurement::chunk_rec& c = m.chunks[i];
    os << (i != 0 ? "," : "") << "[" << c.work << "," << num(c.ms) << ","
       << c.items_end << "," << num(c.cal_ms) << "," << num(c.stolen_ms) << "]";
  }
  os << "], \"latency_ms\": [";
  for (std::size_t i = 0; i < m.latency_ms.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", m.latency_ms[i]);
    os << (i != 0 ? "," : "") << buf;
  }
  os << "]}";
  return os.str();
}

/// A fixed amount of work that calls nothing in the library: a random walk
/// over a 1 MB table, about 1.5 ms. The host is a VM whose co-tenants slow
/// a vCPU by up to ~1.6x in phases lasting seconds; this kernel slows with
/// it (correlation 0.8 with replay time), so run.py can divide the phase
/// out of each chunk's time.
double calibrate_ms() {
  static std::vector<std::uint64_t> table(1u << 17, 1);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const std::uint64_t t0 = now_ns();
  for (int k = 0; k < 200'000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0x1FFFF] += x;
    if (x & 1) table[(x >> 20) & 0x1FFFF] ^= static_cast<std::uint64_t>(k);
  }
  const double ms = ms_between(t0, now_ns());
  // Keeps the loop from being optimized away.
  if (table[x & 0x1FFFF] == 42) std::fprintf(stderr, "%c", ' ');
  return ms;
}

/// CPU time the hypervisor gave to other guests while this VM's CPUs had
/// work to run (`steal` in /proc/stat), summed over CPUs, in 10 ms ticks'
/// resolution; 0 where the kernel does not report it. On the reference host
/// the campaign's shard pools lose up to a quarter of their time this way
/// in busy phases, which the single-threaded calibration kernel does not
/// see, so run.py prefers each chunk's least-stolen timings.
double stolen_ms() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (std::uint64_t& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) * 1e3 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

int run_one(const run_cfg& cfg, double seconds, const std::string& trace_path,
            bool traced) {
  std::unique_ptr<workload> w = make_workload(cfg);
  measurement m;
  w->setup();
  std::printf("ready\n");
  std::fflush(stdout);
  // run.py times launch → ready as setup_s and scales it by this: the
  // median of three, as one kernel run varies by ±15% on its own.
  m.setup_cal_ms = quantile({calibrate_ms(), calibrate_ms(), calibrate_ms()}, 0.5);
  if (traced) {
    w->traced(m, trace_path);
  } else if (seconds > 0) {
    w->warm_up(m);
    const std::uint64_t start = now_ns();
    double cal = calibrate_ms();
    std::uint64_t cal_at = now_ns();
    std::size_t uncalibrated = 0;  // first chunk without a calibration yet
    auto recalibrate = [&] {
      const double next = calibrate_ms();
      for (; uncalibrated < m.chunks.size(); ++uncalibrated) {
        m.chunks[uncalibrated].cal_ms = (cal + next) / 2;
      }
      cal = next;
      cal_at = now_ns();
    };
    // Time-bounded on timed work; the wall guard stops a run whose untimed
    // checks dominate.
    while (m.busy_s < seconds &&
           ms_between(start, now_ns()) < 1e3 * (3.0 * seconds + 10.0)) {
      const double stolen = stolen_ms();
      w->step(m);  // times exactly one chunk
      m.chunks.back().stolen_ms = stolen_ms() - stolen;
      if (ms_between(cal_at, now_ns()) >= 50.0) recalibrate();
    }
    recalibrate();
  }
  std::printf("%s\n", result_json(cfg, m, traced).c_str());
  std::fflush(stdout);
  return m.failed == 0 && m.problems.empty() ? 0 : 1;
}

/// Every workload at about 1% size, untimed step and traced pass both, in
/// this one process.
int smoke(const std::string& only) {
  int rc = 0;
  for (const char* name : k_workloads) {
    if (!only.empty() && only != name) continue;
    run_cfg cfg;
    cfg.workload = name;
    cfg.smoke = true;
    std::unique_ptr<workload> w = make_workload(cfg);
    measurement m;
    w->setup();
    w->warm_up(m);
    w->step(m);
    w->traced(m, "");
    const bool ok = m.failed == 0 && m.problems.empty() && m.attempted > 0;
    std::printf("%-15s %s  attempted=%llu failed=%llu attributed=%.3f\n", name,
                ok ? "ok  " : "FAIL", static_cast<unsigned long long>(m.attempted),
                static_cast<unsigned long long>(m.failed),
                m.layers["trace.attributed_share"]);
    if (!ok) rc = 1;
  }
  return rc;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_detect --workload W --seed S --seconds T "
               "[--proc J/P] [--trace-out FILE]\n"
               "       bench_detect --smoke [--workload W]\n"
               "       bench_detect --host\n"
               "workloads:");
  for (const char* name : k_workloads) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed glibc heap thresholds. Every replay allocates and frees eight
  // zero-filled 256 KB fiber stacks; with the defaults, whether the freed
  // heap top is trimmed (and faulted in again by the next replay) depends on
  // where earlier long-lived allocations happened to land, and campaign
  // throughput varied 1.5-3x between seeds for that alone.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  run_cfg cfg;
  double seconds = 0.0;
  std::string trace_path;
  bool traced = false, smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    auto number = [&]() -> double {
      const std::string text = value();
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(v >= 0)) std::exit(usage());
      return v;
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(number());
    } else if (arg == "--seconds") {
      seconds = number();
    } else if (arg == "--proc") {
      const std::string text = value();
      if (std::sscanf(text.c_str(), "%d/%d", &cfg.proc, &cfg.procs) != 2 ||
          cfg.procs < 1 || cfg.proc < 0 || cfg.proc >= cfg.procs) {
        return usage();
      }
    } else if (arg == "--trace-out") {
      trace_path = value();
      traced = true;
    } else if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg == "--host") {
      std::printf("%s\n", host_json().c_str());
      return 0;
    } else {
      return usage();
    }
  }
  try {
    if (smoke_mode) return smoke(cfg.workload);
    if (!make_workload(cfg)) return usage();
    return run_one(cfg, seconds, trace_path, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_detect: %s\n", e.what());
    return 2;
  }
}
