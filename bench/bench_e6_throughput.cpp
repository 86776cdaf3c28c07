// E6 — The runtime cost of detectability, plus the backend×shards throughput
// sweep of the executor redesign.
//
// The paper notes (§6) that detectability "comes with a price tag in terms
// of space complexity and the need to provide auxiliary state"; this
// experiment quantifies the *time* overhead on real threads: plain objects
// vs Algorithms 1-2 vs the unbounded-id baselines, free-running on a bare
// emulated NVM domain and announcement board (no simulator hook,
// private-cache mode). Objects are instantiated from the registry by kind
// string, and each per-object row is a fixed-iteration timed loop per
// thread: 100,000 iterations, or 200 under DETECT_SMOKE. A row runs its loop
// 5 times (once under DETECT_SMOKE), each on a fresh object, and prints the
// median items/s with the min–max spread.
//
// Before the per-object rows, main() runs a throughput sweep over the
// api::executor backends (single, sharded with a --shards list under each
// placement policy, threads) on one scripted multi-counter workload and
// writes the machine-readable BENCH_e6.json (ops/sec plus the per-shard
// op-load distribution per backend×shards×placement) — the perf-trajectory
// data points CI's bench-smoke stage archives:
//
//   bench_e6_throughput --shards 1,2,4 --sweep-procs 8 --sweep-ops 2000
//                       --json BENCH_e6.json     # all defaults shown
//   DETECT_SMOKE=1 bench_e6_throughput           # tiny parameters
//   bench_e6_throughput --no-sweep               # per-object rows only
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_util.hpp"

namespace {

using namespace detect;

// ---------------------------------------------------------------------------
// Per-object rows: the time cost of detectability.

/// Announcement slots of every row's board; rows use the first `threads`.
constexpr int k_max_threads = 16;

/// What one iteration invokes, and the items it counts.
enum class op_pair {
  write_read,  // write(pid), read — 2 items
  read_cas,    // read, compare_and_set(cur, cur + 1) — 1 item
  add,         // add(1) — 1 item
  write_max,   // write_max(++v) — 1 item
};

struct object_row {
  const char* kind;
  op_pair ops;
  std::vector<int> threads;
};

const object_row k_object_rows[] = {
    {"plain_reg", op_pair::write_read, {1, 2, 4}},
    {"reg", op_pair::write_read, {1, 2, 4}},
    {"attiya_reg", op_pair::write_read, {1, 2, 4}},
    {"plain_cas", op_pair::read_cas, {1, 2, 4}},
    {"cas", op_pair::read_cas, {1, 2, 4}},
    {"bendavid_cas", op_pair::read_cas, {1, 2, 4}},
    {"counter", op_pair::add, {1, 2}},
    {"max_reg", op_pair::write_max, {1, 2}},
};

/// `iters` iterations of `ops` by `pid`; returns the items processed. When
/// the object asks for it, every invocation is preceded by the caller-side
/// auxiliary reset (Ann_p.resp := ⊥, Ann_p.CP := 0) — part of the protocol
/// being measured for detectable objects. Plain objects and Algorithm 3 need
/// none: exactly the cost gap E6 quantifies.
std::int64_t run_thread(core::detectable_object& obj,
                        core::announcement_board& board, op_pair ops, int pid,
                        std::int64_t iters) {
  const bool aux = obj.wants_aux_reset();
  core::ann_fields& ann = board.of(pid);
  auto invoke = [&](const hist::op_desc& op) {
    if (aux) {
      ann.resp.store(hist::k_bottom);
      ann.cp.store(0);
    }
    return obj.invoke(pid, op);
  };
  switch (ops) {
    case op_pair::write_read: {
      api::reg r;  // descriptor builder for object id 0
      const hist::op_desc wr = r.write(pid);
      const hist::op_desc rd = r.read();
      for (std::int64_t i = 0; i < iters; ++i) {
        invoke(wr);
        invoke(rd);
      }
      return 2 * iters;
    }
    case op_pair::read_cas: {
      api::cas c;
      for (std::int64_t i = 0; i < iters; ++i) {
        const hist::value_t cur = invoke(c.read());
        invoke(c.compare_and_set(cur, cur + 1));
      }
      return iters;
    }
    case op_pair::add: {
      api::counter c;
      const hist::op_desc op = c.add(1);
      for (std::int64_t i = 0; i < iters; ++i) invoke(op);
      return iters;
    }
    case op_pair::write_max: {
      api::max_reg m;
      std::int64_t v = 0;
      for (std::int64_t i = 0; i < iters; ++i) invoke(m.write_max(++v));
      return iters;
    }
  }
  return 0;
}

/// One fresh object of `row.kind` on its own domain and board, driven by
/// `threads` real threads (the calling thread is pid 0). The clock starts
/// once every worker is up, and all threads start together. Returns the
/// items per second; `*items` gets the items processed.
double time_object_row(const object_row& row, int threads, std::int64_t iters,
                       std::int64_t* items) {
  nvm::pmem_domain dom;
  core::announcement_board board(k_max_threads, dom);
  api::created_object created = api::object_registry::global().create(
      row.kind, {k_max_threads, board, dom});
  core::detectable_object& obj = created.primary();

  std::atomic<int> waiting{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) {
    workers.emplace_back([&, t] {
      waiting.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      run_thread(obj, board, row.ops, t, iters);
    });
  }
  while (waiting.load() != threads - 1) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  // Every thread processes as many items as pid 0.
  *items = threads * run_thread(obj, board, row.ops, 0, iters);
  for (std::thread& w : workers) w.join();
  const auto stop = std::chrono::steady_clock::now();

  const double secs = std::chrono::duration<double>(stop - start).count();
  return secs > 0 ? static_cast<double>(*items) / secs : 0.0;
}

/// A row's timed loop `runs` times, each on a fresh object: the median
/// items/s and the min–max spread, since one run lasts only milliseconds.
void run_object_row(const object_row& row, int threads, std::int64_t iters,
                    int runs) {
  std::int64_t items = 0;
  std::vector<double> rates;
  for (int r = 0; r < runs; ++r) {
    rates.push_back(time_object_row(row, threads, iters, &items));
  }
  std::sort(rates.begin(), rates.end());
  std::printf("%-14s threads=%d  %10lld items  median %14.0f items/s  "
              "(%.0f-%.0f)\n",
              row.kind, threads, static_cast<long long>(items),
              rates[rates.size() / 2], rates.front(), rates.back());
  std::fflush(stdout);
}

void run_object_rows(std::int64_t iters, int runs) {
  std::printf("== per-object throughput (real threads, %lld iterations per "
              "thread, median of %d runs) ==\n",
              static_cast<long long>(iters), runs);
  for (const object_row& row : k_object_rows) {
    for (int threads : row.threads) run_object_row(row, threads, iters, runs);
  }
}

// ---------------------------------------------------------------------------
// Backend×shards throughput sweep (the executor redesign's data points).

struct sweep_cfg {
  std::vector<int> shard_counts = {1, 2, 4};
  int procs = 8;
  int objects = 8;
  int ops_per_proc = 2000;
  std::string json_path = "BENCH_e6.json";
};

struct sweep_row {
  const char* backend;
  int shards;
  const char* placement;
  std::vector<std::uint64_t> shard_load;  // scripted ops per shard
  std::uint64_t ops;
  double seconds;
  double ops_per_sec;
  /// Throughput relative to the sharded K=1 row (ops/s at K ÷ ops/s at 1) —
  /// the scaling trajectory CI's job summary renders. 1.0 for the baseline
  /// row itself; K rows below 1.0 mean sharding is a net loss at that K.
  double scaling_efficiency = 0.0;
};

/// One scripted multi-counter workload, identical across backends and
/// placements: every proc runs `ops_per_proc` fetch-and-adds round-robin
/// over the objects.
sweep_row run_sweep_config(api::exec_backend be, int shards,
                           api::placement_kind placement,
                           const sweep_cfg& cfg) {
  api::placement_policy pol;
  pol.kind = placement;
  auto ex = api::executor::builder()
                .backend(be)
                .shards(be == api::exec_backend::sharded ? shards : 1)
                .placement(pol)
                .procs(cfg.procs)
                .max_steps(1'000'000'000ULL)
                .build();
  std::vector<api::counter> objs;
  objs.reserve(static_cast<std::size_t>(cfg.objects));
  for (int i = 0; i < cfg.objects; ++i) objs.push_back(ex->add_counter());

  sweep_row row;
  row.shard_load.assign(static_cast<std::size_t>(ex->shards()), 0);
  for (int p = 0; p < cfg.procs; ++p) {
    std::vector<hist::op_desc> script;
    script.reserve(static_cast<std::size_t>(cfg.ops_per_proc));
    for (int i = 0; i < cfg.ops_per_proc; ++i) {
      const api::counter& obj =
          objs[static_cast<std::size_t>((p + i) % cfg.objects)];
      row.shard_load[static_cast<std::size_t>(ex->shard_of(obj.id()))] += 1;
      script.push_back(obj.add(1));
    }
    ex->script(p, std::move(script));
  }

  auto start = std::chrono::steady_clock::now();
  ex->run();
  auto stop = std::chrono::steady_clock::now();

  row.backend = api::backend_name(be);
  row.shards = shards;
  row.placement = api::placement_name(placement);
  row.ops = static_cast<std::uint64_t>(cfg.procs) *
            static_cast<std::uint64_t>(cfg.ops_per_proc);
  row.seconds = std::chrono::duration<double>(stop - start).count();
  row.ops_per_sec =
      row.seconds > 0 ? static_cast<double>(row.ops) / row.seconds : 0.0;
  return row;
}

void run_shards_sweep(const sweep_cfg& cfg) {
  std::printf("== executor backend x shards x placement sweep (%d procs, "
              "%d objects, %d ops/proc) ==\n",
              cfg.procs, cfg.objects, cfg.ops_per_proc);
  std::vector<sweep_row> rows;
  rows.push_back(run_sweep_config(api::exec_backend::single, 1,
                                  api::placement_kind::modulo, cfg));
  for (int k : cfg.shard_counts) {
    // Placement only changes routing when there is more than one world; a
    // one-shard sweep point carries the modulo row alone.
    if (k <= 1) {
      rows.push_back(run_sweep_config(api::exec_backend::sharded, k,
                                      api::placement_kind::modulo, cfg));
      continue;
    }
    for (api::placement_kind pk :
         {api::placement_kind::modulo, api::placement_kind::hash,
          api::placement_kind::range}) {
      rows.push_back(run_sweep_config(api::exec_backend::sharded, k, pk, cfg));
    }
  }
  rows.push_back(run_sweep_config(api::exec_backend::threads, 1,
                                  api::placement_kind::modulo, cfg));

  // Scaling baseline: the sharded K=1 row when the sweep ran one (the
  // single-backend row otherwise) — efficiency at K is measured against one
  // world behind the same sharded machinery.
  double base = 0.0;
  for (const sweep_row& r : rows) {
    if (std::strcmp(r.backend, "sharded") == 0 && r.shards == 1) {
      base = r.ops_per_sec;
      break;
    }
  }
  if (base <= 0.0) base = rows.front().ops_per_sec;
  for (sweep_row& r : rows) {
    r.scaling_efficiency = base > 0.0 ? r.ops_per_sec / base : 0.0;
  }

  for (const sweep_row& r : rows) {
    std::printf("%-8s shards=%-2d %-7s  %10llu ops  %8.3f s  %12.0f ops/s  "
                "scale=%.2fx  load=[",
                r.backend, r.shards, r.placement,
                static_cast<unsigned long long>(r.ops), r.seconds,
                r.ops_per_sec, r.scaling_efficiency);
    for (std::size_t k = 0; k < r.shard_load.size(); ++k) {
      std::printf("%s%llu", k != 0 ? " " : "",
                  static_cast<unsigned long long>(r.shard_load[k]));
    }
    std::printf("]\n");
  }
  std::fflush(stdout);

  std::ofstream out(cfg.json_path);
  if (!out) {
    std::fprintf(stderr, "bench_e6: cannot write '%s'\n",
                 cfg.json_path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"e6_backend_shards_sweep\",\n"
      << "  \"config\": {\"procs\": " << cfg.procs
      << ", \"objects\": " << cfg.objects
      << ", \"ops_per_proc\": " << cfg.ops_per_proc << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sweep_row& r = rows[i];
    out << "    {\"backend\": \"" << r.backend << "\", \"shards\": "
        << r.shards << ", \"placement\": \"" << r.placement
        << "\", \"shard_load\": [";
    for (std::size_t k = 0; k < r.shard_load.size(); ++k) {
      out << (k != 0 ? ", " : "") << r.shard_load[k];
    }
    out << "], \"ops\": " << r.ops << ", \"seconds\": " << r.seconds
        << ", \"ops_per_sec\": " << r.ops_per_sec
        << ", \"scaling_efficiency\": " << r.scaling_efficiency << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n\n", cfg.json_path.c_str());
}

/// Parse "1,2,4" into shard counts; returns false on junk.
bool parse_shard_list(const char* text, std::vector<int>* out) {
  out->clear();
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    long v = std::strtol(p, &end, 10);
    if (end == p || v < 1) return false;
    out->push_back(static_cast<int>(v));
    p = end;
    if (*p == ',') {
      ++p;
      if (*p == '\0') return false;  // trailing comma
    } else if (*p != '\0') {
      return false;
    }
  }
  return !out->empty();
}

}  // namespace

// The backend×shards sweep first, then the per-object rows.
int main(int argc, char** argv) {
  sweep_cfg cfg;
  if (bench::smoke()) {
    cfg.shard_counts = {1, 2};
    cfg.procs = 4;
    cfg.ops_per_proc = 100;
  }
  bool sweep = true;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_e6: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shards") == 0) {
      const char* text = need_value("--shards");
      if (!parse_shard_list(text, &cfg.shard_counts)) {
        std::fprintf(stderr, "bench_e6: bad --shards list '%s'\n", text);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sweep-procs") == 0) {
      cfg.procs = std::atoi(need_value("--sweep-procs"));
    } else if (std::strcmp(argv[i], "--sweep-ops") == 0) {
      cfg.ops_per_proc = std::atoi(need_value("--sweep-ops"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      cfg.json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else {
      std::fprintf(stderr, "bench_e6: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (cfg.procs < 1 || cfg.ops_per_proc < 1) {
    std::fprintf(stderr, "bench_e6: --sweep-procs/--sweep-ops must be >= 1\n");
    return 2;
  }
  if (sweep) run_shards_sweep(cfg);
  run_object_rows(bench::smoke() ? 200 : 100'000, bench::smoke() ? 1 : 5);
  return 0;
}
