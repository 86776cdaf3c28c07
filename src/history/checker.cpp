#include "history/checker.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <typeinfo>

#include "util/task_pool.hpp"

namespace detect::hist {

namespace {

// Two independent 64-bit streams over the same field sequence — together
// the 128-bit sub-check fingerprint lin_memo keys on. Each field is one
// 64-bit word and one step per stream: `lo` xors the word in, `hi` adds it,
// and each then multiplies by its own odd constant and folds its high bits
// down. Every step is a bijection of the stream's state for a fixed word
// and of the word for a fixed state, so two sequences of equal length that
// differ in a single field always end in different keys.
struct fingerprint {
  std::uint64_t lo = 0xCBF29CE484222325ULL;
  std::uint64_t hi = 0x9AE16A3B2F90404FULL;

  void u64(std::uint64_t v) noexcept {
    lo = (lo ^ v) * 0x9E3779B97F4A7C15ULL;
    lo ^= lo >> 32;
    hi = (hi + v) * 0xFF51AFD7ED558CCDULL;
    hi ^= hi >> 29;
  }
  // Length first, then eight bytes per word (the last one zero-padded).
  void str(std::string_view s) noexcept {
    u64(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
      u64(word);
    }
  }
};

// Field-wise, never memcpy of the struct: event has padding bytes whose
// contents would poison the fingerprint.
lin_memo::key memo_key(const spec& sp, std::size_t node_budget,
                       std::uint64_t model_salt,
                       const std::vector<event>& events) {
  // The spec's text goes into one buffer per thread, reused across keys.
  thread_local std::string text;
  text.clear();
  sp.serialize_to(text);
  fingerprint f;
  f.str(typeid(sp).name());
  f.str(text);
  f.u64(node_budget);
  f.u64(model_salt);
  f.u64(events.size());
  for (const event& e : events) {
    f.u64(static_cast<std::uint64_t>(e.kind));
    f.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pid)));
    f.u64(e.desc.object);
    f.u64(static_cast<std::uint64_t>(e.desc.code));
    f.u64(static_cast<std::uint64_t>(e.desc.a));
    f.u64(static_cast<std::uint64_t>(e.desc.b));
    f.u64(e.desc.client_seq);
    f.u64(static_cast<std::uint64_t>(e.value));
    f.u64(static_cast<std::uint64_t>(e.verdict));
  }
  return {f.lo, f.hi};
}

}  // namespace

bool lin_memo::lookup(const key& k, check_result* out) {
  std::scoped_lock lock(mu_);
  auto it = entries_.find(k);
  if (it == entries_.end()) return false;
  *out = it->second;
  ++hits_;
  return true;
}

void lin_memo::store(const key& k, const check_result& r) {
  std::scoped_lock lock(mu_);
  entries_.emplace(k, r);
  ++misses_;
}

namespace {

/// build_records' bookkeeping for one process.
struct proc_records {
  int pid = -1;
  /// Index into the records of the process's open operation (processes are
  /// sequential: at most one at a time), k_npos when none is open.
  std::size_t open = k_npos;
  /// (client_seq, index of the FIRST recover_begin for that op). A crash can
  /// strike inside the announcement window before the invoke event is
  /// logged; a re-invoking recovery (e.g. the nrl adapter) then executes the
  /// op — possibly in an early recovery attempt that is itself crashed
  /// before it can report, with only a later re-attempt logging the verdict.
  /// The synthesized interval must therefore start at the first attempt, not
  /// the last: anchoring at the last recover_begin fabricates a real-time
  /// edge against ops that completed in between and falsely fails histories
  /// (found by the differential fuzzer on nrl_reg).
  std::vector<std::pair<std::uint64_t, std::size_t>> first_begin;
  /// Last client_seq whose record closed: a crash between an op's response
  /// and the client's durable program-counter update makes recovery
  /// re-report "linearized" for an op the log already closed; such
  /// duplicate completion reports must not spawn a second record.
  bool has_closed = false;
  std::uint64_t last_closed = 0;

  void close(const op_record& r) {
    has_closed = true;
    last_closed = r.desc.client_seq;
  }
  auto begin_of(std::uint64_t seq) {
    return std::find_if(first_begin.begin(), first_begin.end(),
                        [&](const auto& b) { return b.first == seq; });
  }
};

}  // namespace

std::vector<op_record> build_records(const std::vector<event>& events,
                                     bool* synthesized_interval) {
  std::vector<op_record> out;
  out.reserve(events.size() / 2);  // an invoke and a response per op, mostly
  // One slot per process, in order of first appearance; a history has few
  // processes, so a linear find is cheaper than a map.
  std::vector<proc_records> procs;
  const auto proc_of = [&](int pid) -> proc_records& {
    for (proc_records& p : procs) {
      if (p.pid == pid) return p;
    }
    proc_records& p = procs.emplace_back();
    p.pid = pid;
    return p;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const event& e = events[i];
    if (e.kind == event_kind::crash) continue;  // intervals simply continue
    proc_records& p = proc_of(e.pid);
    switch (e.kind) {
      case event_kind::invoke: {
        if (p.open != k_npos) {
          throw std::logic_error("process p" + std::to_string(e.pid) +
                                 " invoked an op while one is open");
        }
        op_record r;
        r.pid = e.pid;
        r.desc = e.desc;
        r.invoke_index = i;
        p.open = out.size();
        out.push_back(r);
        break;
      }
      case event_kind::response: {
        if (p.open == k_npos) {
          throw std::logic_error("response without open op on p" +
                                 std::to_string(e.pid));
        }
        op_record& r = out[p.open];
        r.response_index = i;
        r.response = e.value;
        r.has_response = true;
        p.close(r);
        p.open = k_npos;
        break;
      }
      case event_kind::crash:
        break;
      case event_kind::recover_begin:
        if (p.begin_of(e.desc.client_seq) == p.first_begin.end()) {
          p.first_begin.emplace_back(e.desc.client_seq, i);
        }
        break;
      case event_kind::recover_result: {
        // This recovery round concluded; a later round for the same seq (a
        // retry after `fail`) starts fresh, so its interval must anchor at
        // its own first recover_begin, not this round's.
        const auto round = p.begin_of(e.desc.client_seq);
        const bool has_begin = round != p.first_begin.end();
        const std::size_t begin_index = has_begin ? round->second : 0;
        if (has_begin) p.first_begin.erase(round);
        if (p.open == k_npos) {
          // No open op. A `fail` verdict imposes nothing (the operation
          // never took a step). A `linearized` verdict for an op whose
          // record already closed is a duplicate completion report (crash
          // between response and the client's done_seq update) — ignore it.
          // Otherwise the crash struck inside the announcement window before
          // the invoke event was logged and a re-invoking recovery executed
          // the op now: synthesize a record spanning [recover_begin, here].
          if (p.has_closed && p.last_closed == e.desc.client_seq) break;
          if (e.verdict == recovery_verdict::linearized) {
            if (!has_begin) {
              throw std::logic_error(
                  "linearized verdict with no open op and no recover_begin");
            }
            op_record r;
            r.pid = e.pid;
            r.desc = e.desc;
            r.invoke_index = begin_index;
            r.response_index = i;
            r.response = e.value;
            r.has_response = true;
            p.close(r);
            out.push_back(r);
            if (synthesized_interval != nullptr) *synthesized_interval = true;
          }
          break;
        }
        op_record& r = out[p.open];
        if (e.verdict == recovery_verdict::linearized) {
          r.response_index = i;
          r.response = e.value;
          r.has_response = true;
          p.close(r);
        } else {
          // fail ⇒ asserted not linearized ⇒ excluded from the candidate
          // history. Mark for removal below; a later re-attempt shows up as
          // a fresh invoke event.
          r.pid = -2;
        }
        p.open = k_npos;
        break;
      }
    }
  }
  // Ops never resolved (pending at end of run / unrecovered crash) may be
  // dropped by the linearization.
  for (const proc_records& p : procs) {
    if (p.open == k_npos) continue;
    out[p.open].optional = true;
    out[p.open].has_response = false;
    out[p.open].response_index = k_npos;
  }
  std::erase_if(out, [](const op_record& r) { return r.pid == -2; });
  return out;
}

check_result check_durable_linearizability(const std::vector<event>& events,
                                           const spec& initial,
                                           std::size_t node_budget) {
  check_result res;
  std::vector<op_record> records;
  try {
    records = build_records(events, &res.synthesized_interval);
  } catch (const std::exception& ex) {
    res.message = std::string("malformed log: ") + ex.what();
    return res;
  }
  lin_result lr = check_linearizable(records, initial, node_budget);
  res.ok = lr.linearizable;
  res.inconclusive = lr.exhausted_budget;
  res.nodes = lr.nodes;
  if (!lr.linearizable) {
    res.message = lr.error + "\nEvent log:\n";
    for (const event& e : events) {
      res.message += "  ";
      e.append_to(res.message);
      res.message += '\n';
    }
  }
  return res;
}

namespace {

/// The one projection walk. `walk(from, f)` calls `f` on the history's
/// events at positions `from` onwards, in order.
template <class Walk>
void project_walk(Walk&& walk, std::vector<stay> stays) {
  if (stays.empty()) return;
  const auto by_from = [](const stay& a, const stay& b) {
    return a.from < b.from;
  };
  if (!std::is_sorted(stays.begin(), stays.end(), by_from)) {
    std::stable_sort(stays.begin(), stays.end(), by_from);
  }
  // (object id, latest begun stay), sorted by id and found by bisection, so
  // an event costs O(log objects) however many objects the history holds.
  std::vector<std::pair<std::uint32_t, std::size_t>> open;
  open.reserve(stays.size());
  for (const stay& s : stays) open.emplace_back(s.id, k_npos);
  std::sort(open.begin(), open.end());
  open.erase(std::unique(open.begin(), open.end()), open.end());
  const auto latest_of = [&](std::uint32_t id) -> std::size_t* {
    const auto it = std::lower_bound(
        open.begin(), open.end(), id,
        [](const auto& slot, std::uint32_t key) { return slot.first < key; });
    return it != open.end() && it->first == id ? &it->second : nullptr;
  };
  std::size_t pos = stays.front().from;
  std::size_t begun = 0;  // stays[0, begun) began by the event
  walk(pos, [&](const event& e) {
    const std::size_t at = pos++;
    for (; begun < stays.size() && stays[begun].from <= at; ++begun) {
      *latest_of(stays[begun].id) = begun;
    }
    if (e.kind == event_kind::crash) {
      for (std::size_t j = 0; j < begun; ++j) {
        if (at < stays[j].to) stays[j].events->push_back(e);
      }
      return;
    }
    const std::size_t* latest = latest_of(e.desc.object);
    if (latest != nullptr && *latest != k_npos) {
      stays[*latest].events->push_back(e);
    }
  });
}

}  // namespace

void project(const log& history, std::vector<stay> stays) {
  project_walk([&](std::size_t from, auto&& f) { history.for_each(from, f); },
               std::move(stays));
}

void project(const std::vector<event>& history, std::vector<stay> stays) {
  project_walk(
      [&](std::size_t from, auto&& f) {
        std::for_each(history.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(from, history.size())),
                      history.end(), f);
      },
      std::move(stays));
}

namespace {

/// One object's sub-check: project nothing (the stream is pre-built), consult
/// the memo, compute, record. Pure function of its inputs — the property the
/// parallel driver's determinism rests on.
check_result run_sub_check(const object_stream& os, const check_options& opt) {
  lin_memo::key key;
  check_result sub;
  if (opt.memo != nullptr) {
    key = memo_key(*os.sp, opt.node_budget, opt.model_salt, os.events);
    if (opt.memo->lookup(key, &sub)) return sub;
  }
  sub = check_durable_linearizability(os.events, *os.sp, opt.node_budget);
  if (opt.memo != nullptr) opt.memo->store(key, sub);
  return sub;
}

/// Lanes actually used for `count` independent sub-checks given opt.jobs:
/// jobs == 1 (or fewer than two sub-checks) is serial; an explicit jobs > 1
/// always gets real workers (even on a one-core host — tests rely on true
/// concurrency); jobs == 0 auto-sizes to the hardware and collapses to
/// serial when the host cannot run two lanes at once.
int lanes_for(int jobs, std::size_t count) {
  if (count < 2) return 1;
  int n = jobs;
  if (n == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : static_cast<int>(hw);
  }
  n = std::min<int>(n, static_cast<int>(
                           std::min<std::size_t>(count, util::task_pool::k_max_workers)));
  return n >= 2 ? n : 1;
}

}  // namespace

check_result check_object_streams(const std::vector<object_stream>& streams,
                                  const check_options& opt) {
  check_result res;
  res.ok = true;
  res.objects = streams.size();

  // Every sub-check runs — no early exit — into a per-object slot, either
  // serially or on pool lanes pulling indices from a shared counter (no work
  // stealing, no order sensitivity: slot i holds object i's verdict however
  // lanes interleave).
  std::vector<check_result> subs(streams.size());
  const int lanes = lanes_for(opt.jobs, streams.size());
  if (lanes <= 1) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      subs[i] = run_sub_check(streams[i], opt);
    }
  } else {
    util::task_pool& pool = util::task_pool::shared();
    pool.ensure_workers(lanes);
    std::atomic<std::size_t> next{0};
    std::vector<std::function<void()>> jobs;
    jobs.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      jobs.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= streams.size()) return;
          subs[i] = run_sub_check(streams[i], opt);
        }
      });
    }
    pool.run_batch(jobs);
  }

  // Merge in declaration order — byte-identical whatever `lanes` was. On
  // failure name the *worst offender*: the failing object whose own
  // sub-check expanded the most nodes (ties toward the smallest object id),
  // and the node count it spent against the full-history total, so a deep-
  // fuzz artifact is debuggable without replaying the whole history.
  std::size_t worst = streams.size();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const check_result& sub = subs[i];
    res.nodes += sub.nodes;
    res.synthesized_interval |= sub.synthesized_interval;
    if (sub.ok) continue;
    res.ok = false;
    if (worst == streams.size() || sub.nodes > subs[worst].nodes ||
        (sub.nodes == subs[worst].nodes &&
         streams[i].id < streams[worst].id)) {
      worst = i;
    }
  }
  if (!res.ok) {
    const check_result& sub = subs[worst];
    res.inconclusive = sub.inconclusive;
    res.failed_object = static_cast<std::int64_t>(streams[worst].id);
    res.message = "object " + std::to_string(streams[worst].id) + " (" +
                  std::to_string(sub.nodes) + " of " +
                  std::to_string(res.nodes) + " nodes): " + sub.message;
  }
  return res;
}

check_result check_durable_linearizability_per_object(
    const std::vector<event>& events, const object_spec_list& specs,
    const check_options& opt) {
  // Every op event must belong to a spec'd object — a silent skip would
  // vacuously pass histories the caller thought were being checked.
  // The ids are sorted and found by bisection: no scan per event.
  std::vector<std::uint32_t> known;
  known.reserve(specs.size());
  for (const auto& [id, sp] : specs) known.push_back(id);
  std::sort(known.begin(), known.end());
  for (const event& e : events) {
    if (e.kind != event_kind::crash &&
        !std::binary_search(known.begin(), known.end(), e.desc.object)) {
      check_result res;
      res.message = "per-object check: no spec for object id " +
                    std::to_string(e.desc.object);
      return res;
    }
  }

  // One stay per object, open over the whole history. Reserved, so the
  // stays' pointers into `streams` stay valid.
  std::vector<object_stream> streams;
  std::vector<stay> stays;
  streams.reserve(specs.size());
  stays.reserve(specs.size());
  for (const auto& [id, sp] : specs) {
    streams.push_back({id, sp, {}});
    stays.push_back({id, 0, k_open, &streams.back().events});
  }
  project(events, std::move(stays));
  return check_object_streams(streams, opt);
}

}  // namespace detect::hist
