#include "fuzz/scenario_gen.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "fuzz/axes.hpp"

namespace detect::fuzz {

namespace {

using sim::next_rand;

/// Generated crash points fall uniformly below this step.
constexpr std::uint64_t k_max_crash_step = 160;

/// Uniform pick in [lo, hi] (inclusive).
std::uint64_t pick(std::uint64_t& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + next_rand(rng) % (hi - lo + 1);
}

/// The registered family of a declared object, or nullopt for custom kinds
/// the registry does not know (mutations leave those ops alone).
std::optional<api::op_family> family_of(const api::scenario_object& o) {
  const api::object_registry& reg = api::object_registry::global();
  if (!reg.contains(o.kind)) return std::nullopt;
  return reg.at(o.kind).family;
}

/// The `idx`-th script entry (scripts are an ordered map, so this is
/// deterministic).
std::pair<const int, std::vector<hist::op_desc>>* script_at(
    api::scripted_scenario& s, std::uint64_t idx) {
  if (s.scripts.empty()) return nullptr;
  auto it = s.scripts.begin();
  std::advance(it, static_cast<long>(idx % s.scripts.size()));
  return &*it;
}

}  // namespace

std::uint64_t iteration_seed(std::uint64_t base_seed, std::uint64_t iter) {
  // splitmix64 of (base_seed + iter): consecutive iterations land far apart.
  std::uint64_t z = base_seed + iter * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

hist::op_desc random_op(std::uint64_t& rng, api::op_family family, int pid,
                        const gen_config& cfg) {
  const std::vector<hist::opcode>& alphabet = api::family_opcodes(family);
  hist::op_desc d;
  d.code = alphabet[next_rand(rng) % alphabet.size()];
  const hist::value_t v = static_cast<hist::value_t>(
      next_rand(rng) % static_cast<std::uint64_t>(cfg.value_range));
  using hist::opcode;
  switch (d.code) {
    case opcode::reg_write:
    case opcode::swap:
    case opcode::enq:
    case opcode::push:
    case opcode::max_write:
      d.a = v;
      break;
    case opcode::ctr_add:
      d.a = 1 + v % 3;  // small positive deltas
      break;
    case opcode::cas:
      // Narrow domain so successful CASes happen, but never old == new:
      // Algorithm 2's failed-CAS linearization argument needs every
      // successful CAS to change the value (see detectable_cas.hpp) — the
      // paper's own operation universe is Cas(i, i+1 mod |V|).
      d.a = v % 4;
      d.b = (d.a + 1 + static_cast<hist::value_t>(next_rand(rng) % 3)) % 4;
      break;
    case opcode::lock_try:
    case opcode::lock_release:
      d.a = pid;  // lock ops carry the caller's pid
      break;
    default:
      break;  // reads / deq / pop / tas take no arguments
  }
  return d;
}

void enforce_contracts(api::scripted_scenario& s) {
  const api::object_registry& reg = api::object_registry::global();
  // Model-axis points only mean something under values that use them (pct
  // preemptions, tso/pso drains); a mutation that moved the value back must
  // not leave a stale list behind (the dump would suggest semantics the run
  // does not have).
  for (const model_axis& ax : model_axes()) {
    if (ax.points != nullptr && !ax.points_live(s)) ax.points_of(s).clear();
  }
  bool all_detectable = true;
  bool any_lock = false;
  std::map<std::uint32_t, api::op_family> families;
  for (const api::scenario_object& o : s.objects) {
    if (!reg.contains(o.kind)) continue;  // custom kind: nothing to enforce
    const api::kind_info& info = reg.at(o.kind);
    families[o.id] = info.family;
    all_detectable = all_detectable && info.detectable;
    any_lock = any_lock || info.family == api::op_family::lock;
  }
  // Crash batteries are only meaningful when every object honors the
  // detectability contract; one plain_*/stripped_* object makes the whole
  // history uncheckable under crashes.
  if (!all_detectable) {
    s.crash_steps.clear();
    if (s.policy == core::runtime::fail_policy::retry) {
      s.policy = core::runtime::fail_policy::skip;
    }
  }
  // Migration plans and crash plans do not mix in *generated* scenarios:
  // the two script rounds would meet different shard-local crash schedules
  // on the two sides of the cross-backend equivalence diffs. Crashes win —
  // they are the harder adversary. Plans must also still fit the scenario's
  // shard count and declared objects (mutations shrink both).
  if (!s.crash_steps.empty()) {
    s.migrations.clear();
  } else {
    std::erase_if(s.migrations, [&s](const std::pair<std::uint32_t, int>& m) {
      return m.second >= std::max(1, s.shards) ||
             s.find_object(m.first) == nullptr;
    });
  }
  // Placement only means something with a shard knob; mutations that shrink
  // the shard count (or drop objects) must not leave pins pointing at
  // worlds or declarations that no longer exist — replay would reject the
  // policy at build time.
  if (s.shards <= 1) {
    s.placement = {};
    s.migrations.clear();
  } else if (s.placement.kind == api::placement_kind::pinned) {
    std::erase_if(s.placement.pins,
                  [&s](const std::pair<const std::uint32_t, int>& pin) {
                    return pin.second < 0 || pin.second >= s.shards ||
                           s.find_object(pin.first) == nullptr;
                  });
  } else {
    s.placement.pins.clear();
  }
  // The recoverable lock's usage contract (rlock.hpp): under skip, a
  // crash-dropped release leaves holding-state uncertain, so crashy lock
  // scenarios must retry ...
  if (any_lock && !s.crash_steps.empty()) {
    s.policy = core::runtime::fail_policy::retry;
  }
  for (auto& [pid, ops] : s.scripts) {
    std::map<std::uint32_t, bool> may_hold;  // per lock object
    for (hist::op_desc& d : ops) {
      if (d.code == hist::opcode::cas && d.a == d.b) d.b = d.a + 1;
      auto it = families.find(d.object);
      if (it == families.end() || it->second != api::op_family::lock) continue;
      d.a = pid;  // lock ops carry the caller's pid
      // ... and no process may re-invoke try_lock on an object it may still
      // hold; repair by turning the offending try into a release.
      if (d.code == hist::opcode::lock_try) {
        if (may_hold[d.object]) {
          d.code = hist::opcode::lock_release;
        } else {
          may_hold[d.object] = true;
          continue;
        }
      }
      if (d.code == hist::opcode::lock_release) may_hold[d.object] = false;
    }
    // A migration plan replays the scripts a second time, so every lock
    // script must end not-holding or round two's first try_lock would
    // re-invoke while possibly held; balance with a trailing release.
    if (!s.migrations.empty()) {
      for (const auto& [id, held] : may_hold) {
        if (held) {
          ops.push_back({id, hist::opcode::lock_release,
                         static_cast<hist::value_t>(pid), 0, 0});
        }
      }
    }
  }
}

api::scripted_scenario generate(std::uint64_t seed, const std::string& kind,
                                const gen_config& cfg) {
  const api::object_registry& reg = api::object_registry::global();
  std::uint64_t rng = seed | 1;

  api::scripted_scenario s;
  s.sched_seed = next_rand(rng);
  s.nprocs = static_cast<int>(pick(
      rng, static_cast<std::uint64_t>(cfg.min_procs),
      static_cast<std::uint64_t>(std::max(cfg.min_procs, cfg.max_procs))));

  // Objects: the primary kind is object 0; extras draw their kinds from the
  // pool under contiguous ids (on the sharded backend id % shards is the
  // routing, so contiguous ids spread objects across shards).
  s.objects.push_back({0, kind, {}});
  if (!cfg.object_kind_pool.empty() && cfg.max_objects > 1) {
    const int lo = std::max(1, cfg.min_objects);
    const int hi = std::max(lo, cfg.max_objects);
    int n = 1;
    if (lo > 1) {
      n = static_cast<int>(pick(rng, static_cast<std::uint64_t>(lo),
                                static_cast<std::uint64_t>(hi)));
    } else if (next_rand(rng) % 2 == 0) {
      n = static_cast<int>(pick(rng, 2, static_cast<std::uint64_t>(hi)));
    }
    for (std::uint32_t i = 1; i < static_cast<std::uint32_t>(n); ++i) {
      const std::string& extra =
          cfg.object_kind_pool[next_rand(rng) % cfg.object_kind_pool.size()];
      s.objects.push_back({i, extra, {}});
    }
  }
  bool all_detectable = true;
  for (const api::scenario_object& o : s.objects) {
    all_detectable = all_detectable && reg.at(o.kind).detectable;
  }

  const bool with_crashes = cfg.crashes && all_detectable;
  if (with_crashes && cfg.max_crashes > 0) {
    std::uint64_t n = pick(rng, 0, static_cast<std::uint64_t>(cfg.max_crashes));
    for (std::uint64_t c = 0; c < n; ++c) {
      s.crash_steps.push_back(next_rand(rng) % k_max_crash_step);
    }
    std::sort(s.crash_steps.begin(), s.crash_steps.end());
  }
  // retry re-attempts recovery-failed ops — only meaningful when recovery
  // verdicts are trustworthy, i.e. for detectable kinds.
  if (all_detectable && next_rand(rng) % 4 == 0) {
    s.policy = core::runtime::fail_policy::retry;
  }
  if (next_rand(rng) % 4 == 0) {
    s.shared_cache = true;
  }
  // Shard-count knob: with backend == single it arms the single-vs-sharded
  // equivalence diff (check_scenario replays the scenario on both backends);
  // a quarter of the sharded draws additionally run on the sharded backend
  // directly, exercising the cross-shard routing and merged-log paths as the
  // scenario's own execution.
  if (cfg.max_shards > 1) {
    const int lo = std::max(1, cfg.min_shards);
    const int hi = std::max(lo, cfg.max_shards);
    if (lo > 1) {
      s.shards = static_cast<int>(
          pick(rng, static_cast<std::uint64_t>(lo),
               static_cast<std::uint64_t>(hi)));
    } else if (next_rand(rng) % 2 == 0) {
      s.shards = static_cast<int>(
          pick(rng, 2, static_cast<std::uint64_t>(hi)));
    }
    if (cfg.allow_sharded_backend && s.shards > 1 && next_rand(rng) % 4 == 0) {
      s.backend = api::exec_backend::sharded;
    }
  }
  // Placement knob: sharded routing is a policy, not an accident of object
  // ids — scenarios carry one of the four built-ins so the placement-
  // equivalence diff and the sharded backend's routing paths both get
  // exercised. Drawn (or pinned via cfg.placement) only when the scenario
  // has a shard knob at all; the draws stay in the shared xorshift stream.
  if (s.shards > 1 && cfg.placement != "none") {
    api::placement_kind kind = api::placement_kind::modulo;
    if (cfg.placement.empty()) {
      switch (next_rand(rng) % 4) {
        case 0: kind = api::placement_kind::modulo; break;
        case 1: kind = api::placement_kind::hash; break;
        case 2: kind = api::placement_kind::range; break;
        default: kind = api::placement_kind::pinned; break;
      }
    } else {
      kind = api::placement_from_name(cfg.placement);
    }
    s.placement.kind = kind;
    if (kind == api::placement_kind::pinned) {
      for (const api::scenario_object& o : s.objects) {
        s.placement.pins[o.id] = static_cast<int>(
            next_rand(rng) % static_cast<std::uint64_t>(s.shards));
      }
    }
  }
  // Migration knob: crash-free sharded-backend scenarios run their scripts
  // twice with a live object migration in between (enforce_contracts drops
  // plans that conflict with later mutations).
  if (cfg.allow_migrations && s.backend == api::exec_backend::sharded &&
      s.shards > 1 && s.crash_steps.empty() && next_rand(rng) % 4 == 0) {
    const std::uint64_t moves = pick(rng, 1, 2);
    for (std::uint64_t m = 0; m < moves; ++m) {
      const api::scenario_object& target =
          s.objects[next_rand(rng) % s.objects.size()];
      s.migrations.emplace_back(
          target.id,
          static_cast<int>(next_rand(rng) %
                           static_cast<std::uint64_t>(s.shards)));
    }
  }

  for (int pid = 0; pid < s.nprocs; ++pid) {
    std::uint64_t len = pick(
        rng, static_cast<std::uint64_t>(cfg.min_ops),
        static_cast<std::uint64_t>(std::max(cfg.min_ops, cfg.max_ops)));
    std::vector<hist::op_desc> ops;
    ops.reserve(len);
    // Lock family: an unreleased try_lock is pending, per lock object.
    std::map<std::uint32_t, bool> may_hold;
    for (std::uint64_t i = 0; i < len; ++i) {
      const api::scenario_object& target =
          s.objects[next_rand(rng) % s.objects.size()];
      const api::op_family family = reg.at(target.kind).family;
      hist::op_desc d;
      if (family == api::op_family::lock && may_hold[target.id]) {
        d.code = hist::opcode::lock_release;
        d.a = pid;
      } else {
        d = random_op(rng, family, pid, cfg);
      }
      if (family == api::op_family::lock) {
        may_hold[target.id] = d.code == hist::opcode::lock_try;
      }
      d.object = target.id;
      ops.push_back(d);
    }
    s.scripts[pid] = std::move(ops);
  }
  // Model-axis draws come LAST (point horizons want the final op count) and
  // only when the pools are opted in — default pools draw nothing, so
  // historical (seed, kind) scenarios stay byte-identical.
  for (const model_axis& ax : model_axes()) {
    if (pool_open(ax, cfg)) draw_axis(ax, rng, s, cfg);
  }
  enforce_contracts(s);
  return s;
}

api::scripted_scenario mutate(const api::scripted_scenario& base,
                              std::uint64_t& rng, const gen_config& cfg) {
  api::scripted_scenario s = base;
  // Extra mutation cases exist only when their pools are opted in, so the
  // default-config case distribution (and every pinned campaign count built
  // on it) is untouched: per opened axis, in table order, a value edit plus
  // a point edit when the axis carries points.
  std::uint64_t cases = 13;
  for (const model_axis& ax : model_axes()) {
    if (pool_open(ax, cfg)) cases += ax.points != nullptr ? 2 : 1;
  }
  // Draw mutations until one applies (bounded — a scenario with nothing to
  // edit in some dimension just falls through to a knob flip eventually).
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool applied = true;
    const std::uint64_t c = next_rand(rng) % cases;
    if (c >= 13) {
      std::uint64_t extra = c - 13;
      for (const model_axis& ax : model_axes()) {
        if (!pool_open(ax, cfg)) continue;
        if (extra == 0) {
          mutate_axis(ax, rng, s, cfg);
          break;
        }
        if (ax.points != nullptr && extra == 1) {
          applied = perturb_points(ax, rng, s);
          break;
        }
        extra -= ax.points != nullptr ? 2 : 1;
      }
      if (applied) break;
      continue;
    }
    switch (c) {
      case 0:
        s.sched_seed = next_rand(rng);
        break;
      case 1: {
        // Honor the configured floor: a --shards-min 2 campaign promises the
        // equivalence diff on every iteration, mutants included.
        const int lo = std::max(1, cfg.min_shards);
        const int hi = std::max(lo, cfg.max_shards);
        s.shards = static_cast<int>(
            pick(rng, static_cast<std::uint64_t>(lo),
                 static_cast<std::uint64_t>(hi)));
        if (s.backend == api::exec_backend::sharded && s.shards < 2) {
          s.backend = api::exec_backend::single;
        }
        break;
      }
      case 2:  // backend flip
        if (s.backend == api::exec_backend::single &&
            cfg.allow_sharded_backend) {
          s.backend = api::exec_backend::sharded;
          if (s.shards < 2) {
            s.shards = static_cast<int>(pick(rng, 2, 4));
          }
        } else if (s.backend == api::exec_backend::sharded) {
          s.backend = api::exec_backend::single;
        } else {
          applied = false;
        }
        break;
      case 3:
        if (s.policy == core::runtime::fail_policy::skip) {
          s.policy = core::runtime::fail_policy::retry;
        } else {
          s.policy = core::runtime::fail_policy::skip;
        }
        break;
      case 4:
        s.shared_cache = !s.shared_cache;
        break;
      case 5:  // add a crash point
        if (cfg.crashes &&
            s.crash_steps.size() <
                static_cast<std::size_t>(std::max(0, cfg.max_crashes))) {
          s.crash_steps.push_back(next_rand(rng) % k_max_crash_step);
          std::sort(s.crash_steps.begin(), s.crash_steps.end());
        } else {
          applied = false;
        }
        break;
      case 6:  // drop a crash point
        if (!s.crash_steps.empty()) {
          s.crash_steps.erase(s.crash_steps.begin() +
                              static_cast<long>(next_rand(rng) %
                                                s.crash_steps.size()));
        } else {
          applied = false;
        }
        break;
      case 7: {  // add an object (plus a few ops driving it)
        if (cfg.object_kind_pool.empty() ||
            s.objects.size() >=
                static_cast<std::size_t>(std::max(1, cfg.max_objects))) {
          applied = false;
          break;
        }
        const std::string& kind =
            cfg.object_kind_pool[next_rand(rng) % cfg.object_kind_pool.size()];
        std::uint32_t id = s.add_object(kind);
        if (auto* entry = script_at(s, next_rand(rng))) {
          const api::op_family family =
              api::object_registry::global().at(kind).family;
          std::uint64_t n = pick(rng, 1, 2);
          for (std::uint64_t i = 0; i < n; ++i) {
            hist::op_desc d = random_op(rng, family, entry->first, cfg);
            d.object = id;
            entry->second.push_back(d);
          }
        }
        break;
      }
      case 8: {  // drop a non-primary object and its ops
        if (s.objects.size() < 2 ||
            s.objects.size() <=
                static_cast<std::size_t>(std::max(1, cfg.min_objects))) {
          applied = false;
          break;
        }
        std::size_t idx = 1 + next_rand(rng) % (s.objects.size() - 1);
        std::uint32_t id = s.objects[idx].id;
        s.objects.erase(s.objects.begin() + static_cast<long>(idx));
        for (auto& [pid, ops] : s.scripts) {
          std::erase_if(ops,
                        [id](const hist::op_desc& d) { return d.object == id; });
        }
        break;
      }
      case 9: {  // retarget one op to another same-family object
        auto* entry = script_at(s, next_rand(rng));
        if (entry == nullptr || entry->second.empty() || s.objects.size() < 2) {
          applied = false;
          break;
        }
        hist::op_desc& d =
            entry->second[next_rand(rng) % entry->second.size()];
        const api::scenario_object* from = s.find_object(d.object);
        if (from == nullptr) {
          applied = false;
          break;
        }
        std::optional<api::op_family> fam = family_of(*from);
        std::vector<std::uint32_t> candidates;
        for (const api::scenario_object& o : s.objects) {
          if (o.id != d.object && fam.has_value() && family_of(o) == fam) {
            candidates.push_back(o.id);
          }
        }
        if (candidates.empty()) {
          applied = false;
          break;
        }
        d.object = candidates[next_rand(rng) % candidates.size()];
        break;
      }
      case 10: {  // placement flip
        if (s.shards <= 1 || cfg.placement == "none" ||
            (!cfg.placement.empty() &&
             s.placement.kind == api::placement_from_name(cfg.placement))) {
          applied = false;
          break;
        }
        api::placement_policy next;
        switch (next_rand(rng) % 4) {
          case 0: next.kind = api::placement_kind::modulo; break;
          case 1: next.kind = api::placement_kind::hash; break;
          case 2: next.kind = api::placement_kind::range; break;
          default: {
            next.kind = api::placement_kind::pinned;
            for (const api::scenario_object& o : s.objects) {
              next.pins[o.id] = static_cast<int>(
                  next_rand(rng) % static_cast<std::uint64_t>(s.shards));
            }
            break;
          }
        }
        if (next == s.placement) {
          applied = false;
          break;
        }
        s.placement = std::move(next);
        break;
      }
      case 11: {  // migration plan: add a move or drop one
        const bool can_add = cfg.allow_migrations &&
                             s.backend == api::exec_backend::sharded &&
                             s.shards > 1 && s.crash_steps.empty() &&
                             s.migrations.size() < 3 && !s.objects.empty();
        if (can_add && (s.migrations.empty() || next_rand(rng) % 2 == 0)) {
          const api::scenario_object& target =
              s.objects[next_rand(rng) % s.objects.size()];
          s.migrations.emplace_back(
              target.id,
              static_cast<int>(next_rand(rng) %
                               static_cast<std::uint64_t>(s.shards)));
        } else if (!s.migrations.empty()) {
          s.migrations.erase(
              s.migrations.begin() +
              static_cast<long>(next_rand(rng) % s.migrations.size()));
        } else {
          applied = false;
        }
        break;
      }
      default: {  // rewrite or append an op on a random target
        auto* entry = script_at(s, next_rand(rng));
        if (entry == nullptr || s.objects.empty()) {
          applied = false;
          break;
        }
        const api::scenario_object& target =
            s.objects[next_rand(rng) % s.objects.size()];
        std::optional<api::op_family> fam = family_of(target);
        if (!fam.has_value()) {
          applied = false;
          break;
        }
        hist::op_desc d = random_op(rng, *fam, entry->first, cfg);
        d.object = target.id;
        if (entry->second.empty() || next_rand(rng) % 2 == 0) {
          entry->second.push_back(d);
        } else {
          entry->second[next_rand(rng) % entry->second.size()] = d;
        }
        break;
      }
    }
    if (applied) break;
  }
  enforce_contracts(s);
  return s;
}

}  // namespace detect::fuzz
