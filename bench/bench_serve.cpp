// bench_serve — load scenarios for the detect::serve front-end, writing the
// machine-readable BENCH_serve.json that CI's bench-smoke stage archives.
//
// Three scenarios, each one row in the artifact:
//
//   soak      the deterministic serving soak: N sessions × M ops with crash
//             injection and live rebalancing, half the traffic pinned to the
//             shard-0 object cluster. The bench *enforces* the serving
//             invariants — zero lost or duplicated completions, per-session
//             program order, ≥1 crash survived, ≥1 rebalance move, and a
//             clean per-object durable-linearizability certificate — and
//             exits nonzero on any violation, so the artifact can only ever
//             contain rows from a correct run. Its row records the timed
//             serving loop as `seconds`, the certificate's own wall time
//             as `check_seconds`, and the median wall time of one round
//             (one pump()) over the first and the last quarter of the
//             waves as `round_ms_first_quarter` / `round_ms_last_quarter`:
//             equal values mean a round costs what it serves, a rising
//             last quarter that rounds pay for the history behind them.
//   overload  2× offered load against a small queue high-water mark: queue
//             depth must stay bounded, `overloaded` rejects must be issued,
//             and every *admitted* op must still complete (with its p99).
//   threaded  the dispatcher-thread mode under the same kind of traffic,
//             wall-clock latency in microseconds.
//
// Workload shaping: the checker certifies at most 64 ops per object, so
// every scenario scales by object population — the object count derives
// from the op budget at ≤40 ops per hot object.
//
//   bench_serve --soak 32 --ops 2000 --json BENCH_serve.json   # defaults
//   DETECT_SMOKE=1 bench_serve                                 # tiny run
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "serve/serve.hpp"

namespace {

using namespace detect;

struct cli_cfg {
  int sessions = 32;
  int ops = 2000;  // per session
  std::string json_path = "BENCH_serve.json";
};

std::vector<std::string> g_problems;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  g_problems.push_back(what);
  std::fprintf(stderr, "bench_serve: INVARIANT VIOLATED: %s\n", what.c_str());
}

/// One artifact row: the scenario name and wall time (plus, for the soak,
/// its other timings by name) wrapped around the serve::stats snapshot
/// (serialized by the library, so field names cannot drift from
/// serve::stats_json).
std::string row_json(
    const std::string& scenario, double seconds, const serve::stats& st,
    const std::vector<std::pair<std::string, double>>& timings = {}) {
  std::string row = "    {\"scenario\": \"" + scenario +
                    "\", \"seconds\": " + bench::fmt(seconds, 4);
  for (const auto& [name, value] : timings) {
    row += ", \"" + name + "\": " + bench::fmt(value, 4);
  }
  return row + ", \"stats\": " + serve::stats_json(st) + "}";
}

/// Median of `ms` (empty → 0).
double median_ms(std::vector<double> ms) {
  if (ms.empty()) return 0.0;
  const auto mid = ms.begin() + static_cast<long>(ms.size() / 2);
  std::nth_element(ms.begin(), mid, ms.end());
  return *mid;
}

void print_row(const char* scenario, double seconds, const serve::stats& st) {
  std::printf("%-9s %8llu admitted  %8llu completed  %6llu rejected  "
              "%4llu crashes  %2zu moves  p99=%llu %s  %.3f s\n",
              scenario, static_cast<unsigned long long>(st.admitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.rejected_total()),
              static_cast<unsigned long long>(st.crashes), st.moves.size(),
              static_cast<unsigned long long>(st.p99),
              st.latency_unit.c_str(), seconds);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// soak — the acceptance scenario.

std::string run_soak(const cli_cfg& cli) {
  constexpr int k_shards = 4;
  const int total_ops = cli.sessions * cli.ops;
  // Half the traffic lands on the shard-0 cluster at ≤40 ops per object.
  const int hot_count = std::max(k_shards, (total_ops / 2 + 39) / 40);
  const int k_objects = hot_count * k_shards;
  const int per_wave = std::max(1, cli.ops / 40);  // ops per session per wave
  const std::size_t batch =
      std::max<std::size_t>(256, static_cast<std::size_t>(cli.sessions) *
                                     static_cast<std::size_t>(per_wave));

  auto srv = serve::server::builder()
                 .shards(k_shards)
                 .procs(8)
                 .seed(42)
                 .crash_random(17, 0.0005, 2)
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

  std::vector<api::counter> objs;
  objs.reserve(static_cast<std::size_t>(k_objects));
  for (int i = 0; i < k_objects; ++i) objs.push_back(srv->add_counter());
  std::vector<serve::session> sessions;
  for (int i = 0; i < cli.sessions; ++i) sessions.push_back(srv->open_session());

  std::set<std::uint64_t> seen;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> last_ticket;
  std::uint64_t dups = 0, order_violations = 0, callbacks = 0;
  auto on_done = [&](const serve::completion& c) {
    ++callbacks;
    if (!seen.insert(c.ticket).second) ++dups;
    std::uint64_t& last = last_ticket[{c.session, c.object}];
    if (c.ticket <= last) ++order_violations;
    last = c.ticket;
  };

  // Even submits hit the hot cluster, odd submits spread over the rest.
  auto target_of = [&](int s, int i) -> const api::counter& {
    const int stride = s * (cli.ops / 2) + i / 2;
    if (i % 2 == 0) {
      return objs[static_cast<std::size_t>(stride % hot_count) * k_shards];
    }
    const int j = stride % (k_objects - hot_count);
    const int id = (j / (k_shards - 1)) * k_shards + 1 + (j % (k_shards - 1));
    return objs[static_cast<std::size_t>(id)];
  };

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t admitted = 0;
  std::vector<double> round_ms;  // one per wave's pump()
  for (int base = 0; base < cli.ops; base += per_wave) {
    const int end = std::min(cli.ops, base + per_wave);
    for (int s = 0; s < cli.sessions; ++s) {
      for (int i = base; i < end; ++i) {
        if (serve::admitted(sessions[static_cast<std::size_t>(s)].submit(
                target_of(s, i).add(1), on_done))) {
          ++admitted;
        }
      }
    }
    const auto pump_start = std::chrono::steady_clock::now();
    srv->pump();
    round_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - pump_start)
                           .count());
  }
  srv->drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::size_t quarter = std::max<std::size_t>(1, round_ms.size() / 4);
  const double first_quarter = median_ms(
      {round_ms.begin(), round_ms.begin() + static_cast<long>(quarter)});
  const double last_quarter = median_ms(
      {round_ms.end() - static_cast<long>(quarter), round_ms.end()});

  serve::stats st = srv->snapshot();
  expect(admitted == static_cast<std::uint64_t>(total_ops),
         "soak: every submit admitted");
  expect(st.completed == admitted, "soak: zero lost completions");
  expect(callbacks == admitted, "soak: every completion callback fired");
  expect(dups == 0, "soak: zero duplicated completions");
  expect(order_violations == 0, "soak: per-session program order");
  expect(st.inflight == 0, "soak: drained to zero inflight");
  expect(st.crashes >= 1, "soak: at least one injected crash survived");
  expect(!st.moves.empty(), "soak: the skew triggered a rebalance move");
  const auto check_start = std::chrono::steady_clock::now();
  hist::check_result cr = srv->check();
  const double check_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    check_start)
          .count();
  expect(cr.ok,
         "soak: durable linearizability certificate (" + cr.message + ")");
  expect(cr.objects == static_cast<std::size_t>(k_objects),
         "soak: certificate covers every object");

  print_row("soak", seconds, st);
  std::printf("%-9s certificate over %zu objects  %.3f s\n", "", cr.objects,
              check_seconds);
  std::printf("%-9s round %.3f ms (first quarter)  %.3f ms (last quarter)\n",
              "", first_quarter, last_quarter);
  return row_json("soak", seconds, st,
                  {{"check_seconds", check_seconds},
                   {"round_ms_first_quarter", first_quarter},
                   {"round_ms_last_quarter", last_quarter}});
}

// ---------------------------------------------------------------------------
// overload — 2x offered load against a small high-water mark.

std::string run_overload(const cli_cfg&) {
  constexpr int k_shards = 2;
  constexpr std::size_t k_batch = 128;
  constexpr std::size_t k_high_water = 128;
  const int waves = bench::smoke() ? 8 : 20;
  // Offered per wave = 2x what one round can drain across all shards.
  const int offered_per_wave = static_cast<int>(2 * k_shards * k_batch);
  constexpr int k_objects = 256;

  auto srv = serve::server::builder()
                 .shards(k_shards)
                 .procs(4)
                 .seed(7)
                 .batch_max_ops(k_batch)
                 .queue_high_water(k_high_water)
                 .session_tokens(1e9, 1e9)
                 .build();
  std::vector<api::counter> objs;
  for (int i = 0; i < k_objects; ++i) objs.push_back(srv->add_counter());
  std::vector<serve::session> sessions;
  for (int i = 0; i < 8; ++i) sessions.push_back(srv->open_session());

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t offered = 0, admitted = 0, overloaded = 0;
  for (int wave = 0; wave < waves; ++wave) {
    for (int i = 0; i < offered_per_wave; ++i) {
      const std::uint64_t n = offered++;
      const serve::submit_status s =
          sessions[n % sessions.size()].submit(objs[n % k_objects].add(1));
      if (s == serve::submit_status::admitted) ++admitted;
      if (s == serve::submit_status::overloaded) ++overloaded;
    }
    srv->pump();
  }
  srv->drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  serve::stats st = srv->snapshot();
  expect(overloaded > 0, "overload: 2x load produced `overloaded` rejects");
  expect(st.rejected_queue == overloaded,
         "overload: rejects attributed to the queue high-water brake");
  for (const serve::shard_stats& sh : st.shards) {
    expect(sh.max_queue_depth <= k_high_water,
           "overload: queue depth stayed under the high-water mark");
  }
  expect(st.completed == admitted, "overload: every admitted op completed");
  expect(st.inflight == 0, "overload: drained to zero inflight");
  expect(st.p99 >= 1, "overload: a p99 latency was recorded");
  expect(srv->check().ok, "overload: certificate over the admitted history");

  print_row("overload", seconds, st);
  return row_json("overload", seconds, st);
}

// ---------------------------------------------------------------------------
// threaded — the dispatcher-thread mode, wall-clock latency.

std::string run_threaded(const cli_cfg&) {
  const int per_session = bench::smoke() ? 100 : 500;
  constexpr int k_sessions = 4;
  constexpr int k_objects = 128;

  auto srv = serve::server::builder()
                 .shards(2)
                 .procs(4)
                 .threaded(true)
                 .batch_max_ops(64)
                 .batch_window(std::chrono::microseconds(200))
                 .build();
  std::vector<api::counter> objs;
  for (int i = 0; i < k_objects; ++i) objs.push_back(srv->add_counter());
  std::vector<serve::session> sessions;
  for (int i = 0; i < k_sessions; ++i) sessions.push_back(srv->open_session());

  std::mutex mu;
  std::uint64_t callbacks = 0;
  auto on_done = [&](const serve::completion&) {
    std::lock_guard<std::mutex> lk(mu);
    ++callbacks;
  };

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t admitted = 0;
  for (int i = 0; i < per_session; ++i) {
    for (int s = 0; s < k_sessions; ++s) {
      const int id = (s * per_session + i) % k_objects;
      if (serve::admitted(sessions[static_cast<std::size_t>(s)].submit(
              objs[static_cast<std::size_t>(id)].add(1), on_done))) {
        ++admitted;
      }
    }
  }
  srv->drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  srv->shutdown();

  serve::stats st = srv->snapshot();
  expect(st.completed == admitted, "threaded: every admitted op completed");
  {
    std::lock_guard<std::mutex> lk(mu);
    expect(callbacks == admitted, "threaded: every callback fired");
  }
  expect(st.inflight == 0, "threaded: drained to zero inflight");
  expect(st.latency_unit == "us", "threaded: wall-clock latency unit");
  expect(srv->check().ok, "threaded: certificate over the served history");

  print_row("threaded", seconds, st);
  return row_json("threaded", seconds, st);
}

}  // namespace

int main(int argc, char** argv) {
  cli_cfg cli;
  if (bench::smoke()) {
    cli.sessions = 8;
    cli.ops = 250;
  }
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_serve: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--soak") == 0) {
      cli.sessions = std::atoi(need_value("--soak"));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      cli.ops = std::atoi(need_value("--ops"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      cli.json_path = need_value("--json");
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--soak SESSIONS] [--ops PER_SESSION] "
                   "[--json PATH]\n");
      return 2;
    }
  }
  if (cli.sessions < 1 || cli.ops < 2) {
    std::fprintf(stderr, "bench_serve: --soak >= 1 and --ops >= 2 required\n");
    return 2;
  }

  std::printf("== serve load scenarios (%d sessions x %d ops soak%s) ==\n",
              cli.sessions, cli.ops, bench::smoke() ? ", smoke" : "");
  std::vector<std::string> rows;
  rows.push_back(run_soak(cli));
  rows.push_back(run_overload(cli));
  rows.push_back(run_threaded(cli));

  std::ofstream out(cli.json_path);
  if (!out) {
    std::fprintf(stderr, "bench_serve: cannot write '%s'\n",
                 cli.json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"serve_load\",\n"
      << "  \"config\": {\"sessions\": " << cli.sessions
      << ", \"ops_per_session\": " << cli.ops << "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", cli.json_path.c_str());

  if (!g_problems.empty()) {
    std::fprintf(stderr, "bench_serve: %zu invariant violation(s)\n",
                 g_problems.size());
    return 1;
  }
  return 0;
}
