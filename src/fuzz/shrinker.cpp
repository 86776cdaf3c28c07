#include "fuzz/shrinker.hpp"

#include <vector>

#include "fuzz/axes.hpp"

namespace detect::fuzz {

namespace {

/// Keep `edit(s)` if the result still fails. Returns true on progress.
/// NOTE: a kept edit replaces `s` wholesale — callers must not hold
/// iterators/references into `s` across a try_edit call.
bool try_edit(api::scripted_scenario& s, const fail_predicate& fails,
              const std::function<bool(api::scripted_scenario&)>& edit) {
  api::scripted_scenario candidate = s;
  if (!edit(candidate)) return false;  // edit not applicable
  if (!fails(candidate)) return false;
  s = std::move(candidate);
  return true;
}

/// Renumber script pids densely (0..k-1) and shrink nprocs to match. Scripts
/// stay in ascending-pid order, so renumbering preserves relative identity;
/// lock ops carry the caller's pid as their argument, so those are rewritten
/// to the new pid to keep the scenario well-formed.
void compact_pids(api::scripted_scenario& s) {
  std::map<int, std::vector<hist::op_desc>> dense;
  int next = 0;
  for (auto& [pid, ops] : s.scripts) {
    for (hist::op_desc& d : ops) {
      if (d.code == hist::opcode::lock_try ||
          d.code == hist::opcode::lock_release) {
        d.a = next;
      }
    }
    dense[next++] = std::move(ops);
  }
  s.scripts = std::move(dense);
  if (next > 0) s.nprocs = next;
}

std::vector<int> pids_of(const api::scripted_scenario& s) {
  std::vector<int> pids;
  pids.reserve(s.scripts.size());
  for (const auto& [pid, ops] : s.scripts) pids.push_back(pid);
  return pids;
}

/// The usage contracts the generator enforces (scenario_gen.cpp) must
/// survive shrinking, or a candidate can "fail" for the contract violation
/// instead of the original defect and the minimized artifact blames a
/// non-bug. Checked per declared object on every candidate before the fail
/// predicate runs.
bool respects_contracts(const api::scripted_scenario& s) {
  const api::object_registry& reg = api::object_registry::global();
  // Model-axis points only mean something under values that use them; a
  // candidate carrying stale ones is non-canonical (enforce_contracts clears
  // them).
  for (const model_axis& ax : model_axes()) {
    if (ax.points != nullptr && !ax.points_live(s) && !ax.points(s)->empty()) {
      return false;
    }
  }
  bool any_lock = false;
  for (const api::scenario_object& o : s.objects) {
    if (!reg.contains(o.kind)) continue;  // custom kind: nothing to check
    any_lock = any_lock ||
               reg.at(o.kind).family == api::op_family::lock;
  }
  // Crashy lock scenarios must retry (a crash-skipped release leaves
  // holding-state uncertain) ...
  if (any_lock && !s.crash_steps.empty() &&
      s.policy != core::runtime::fail_policy::retry) {
    return false;
  }
  // Migration plans and crash plans do not mix (enforce_contracts never
  // generates the combination; a shrink candidate must not reintroduce it),
  // and a migration plan must name declared objects on in-range shards.
  if (!s.migrations.empty()) {
    if (!s.crash_steps.empty()) return false;
    for (const auto& [id, shard] : s.migrations) {
      if (s.find_object(id) == nullptr || shard < 0 ||
          shard >= std::max(1, s.shards)) {
        return false;
      }
    }
  }
  for (const auto& [pid, ops] : s.scripts) {
    // ... and no process may re-invoke try_lock on an object it may still
    // hold (tracked per lock object).
    std::map<std::uint32_t, bool> may_hold;
    for (const hist::op_desc& d : ops) {
      if (d.code == hist::opcode::lock_try) {
        if (may_hold[d.object]) return false;
        may_hold[d.object] = true;
      } else if (d.code == hist::opcode::lock_release) {
        may_hold[d.object] = false;
      } else if (d.code == hist::opcode::cas && d.a == d.b) {
        // Algorithm 2's failed-CAS linearization needs old != new.
        return false;
      }
    }
    // A migration plan replays the scripts a second time, so every lock
    // script must end not-holding (else round two re-invokes try_lock while
    // possibly held).
    if (!s.migrations.empty()) {
      for (const auto& [object, held] : may_hold) {
        if (held) return false;
      }
    }
  }
  return true;
}

}  // namespace

api::scripted_scenario shrink(api::scripted_scenario s,
                              const fail_predicate& raw_fails,
                              int max_rounds) {
  if (!raw_fails(s)) return s;
  fail_predicate fails = [&raw_fails](const api::scripted_scenario& c) {
    return respects_contracts(c) && raw_fails(c);
  };

  for (int round = 0; round < max_rounds; ++round) {
    bool progress = false;

    // 0. Model-axis canonicalization — before any structural pass, so
    // model-independent failures shrink on the canonical (round_robin,
    // strict, sc) models, and model-dependent ones keep only the points
    // (preemptions, scripted drains) they actually need: the repro then
    // reads as "these specific points, nothing else". Points drop in reverse
    // table order (drains before preemptions).
    for (const model_axis& ax : model_axes()) {
      progress |= try_edit(s, fails, [&ax](api::scripted_scenario& c) {
        return canonicalize(ax, c);
      });
    }
    const std::vector<model_axis>& axes = model_axes();
    for (auto ax = axes.rbegin(); ax != axes.rend(); ++ax) {
      if (ax->points == nullptr) continue;
      for (int i = static_cast<int>(ax->points(s)->size()) - 1; i >= 0; --i) {
        progress |= try_edit(s, fails, [&ax, i](api::scripted_scenario& c) {
          std::vector<std::uint64_t>& points = ax->points_of(c);
          if (i >= static_cast<int>(points.size())) return false;
          points.erase(points.begin() + i);
          return true;
        });
      }
    }

    // 1. Whole processes, highest pid first (dropping a later pid leaves the
    // earlier ones unrenumbered, so the pid snapshot stays valid).
    {
      std::vector<int> pids = pids_of(s);
      for (auto it = pids.rbegin(); it != pids.rend(); ++it) {
        int p = *it;
        progress |= try_edit(s, fails, [p](api::scripted_scenario& c) {
          if (c.scripts.size() <= 1 || c.scripts.count(p) == 0) return false;
          c.scripts.erase(p);
          compact_pids(c);
          return true;
        });
      }
    }

    // 1b. Whole objects, last declared first: drop the object and every op
    // targeting it (a scenario must keep at least one object).
    for (int i = static_cast<int>(s.objects.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (c.objects.size() <= 1 ||
            i >= static_cast<int>(c.objects.size())) {
          return false;
        }
        const std::uint32_t id = c.objects[static_cast<std::size_t>(i)].id;
        c.objects.erase(c.objects.begin() + i);
        for (auto& [pid, ops] : c.scripts) {
          std::erase_if(ops, [id](const hist::op_desc& d) {
            return d.object == id;
          });
        }
        return true;
      });
    }

    // 1c. Merge same-kind object pairs: retarget the later object's ops onto
    // the earlier one and drop the later declaration — fewer objects, same
    // op count, often enough to collapse a cross-shard failure into one
    // world.
    for (int j = static_cast<int>(s.objects.size()) - 1; j >= 1; --j) {
      progress |= try_edit(s, fails, [j](api::scripted_scenario& c) {
        if (j >= static_cast<int>(c.objects.size())) return false;
        const api::scenario_object& victim =
            c.objects[static_cast<std::size_t>(j)];
        int into = -1;
        for (int i = 0; i < j; ++i) {
          if (c.objects[static_cast<std::size_t>(i)].kind == victim.kind) {
            into = i;
            break;
          }
        }
        if (into < 0) return false;
        const std::uint32_t from = victim.id;
        const std::uint32_t to =
            c.objects[static_cast<std::size_t>(into)].id;
        c.objects.erase(c.objects.begin() + j);
        for (auto& [pid, ops] : c.scripts) {
          for (hist::op_desc& d : ops) {
            if (d.object == from) d.object = to;
          }
        }
        return true;
      });
    }

    // 2a. Suffix halves per process.
    for (int p : pids_of(s)) {
      while (try_edit(s, fails, [p](api::scripted_scenario& c) {
        auto it = c.scripts.find(p);
        if (it == c.scripts.end() || it->second.size() < 2) return false;
        it->second.resize(it->second.size() - it->second.size() / 2);
        return true;
      })) {
        progress = true;
      }
    }

    // 2b. Individual ops, back to front (an empty script is legal; step 1
    // removes emptied processes on the next round).
    for (int p : pids_of(s)) {
      auto it = s.scripts.find(p);
      if (it == s.scripts.end()) continue;
      for (int i = static_cast<int>(it->second.size()) - 1; i >= 0; --i) {
        progress |= try_edit(s, fails, [p, i](api::scripted_scenario& c) {
          auto cit = c.scripts.find(p);
          if (cit == c.scripts.end() ||
              i >= static_cast<int>(cit->second.size())) {
            return false;
          }
          cit->second.erase(cit->second.begin() + i);
          return true;
        });
        it = s.scripts.find(p);  // s may have been replaced by the edit
        if (it == s.scripts.end()) break;
      }
    }

    // 2c. Retarget ops onto the first same-kind object: pulls a scattered
    // failure onto one object so the object-dropping pass can finish the
    // job next round.
    for (int p : pids_of(s)) {
      std::size_t len = s.scripts.count(p) != 0 ? s.scripts.at(p).size() : 0;
      for (std::size_t i = 0; i < len; ++i) {
        progress |= try_edit(s, fails, [p, i](api::scripted_scenario& c) {
          auto cit = c.scripts.find(p);
          if (cit == c.scripts.end() || i >= cit->second.size()) return false;
          hist::op_desc& d = cit->second[i];
          const api::scenario_object* from = c.find_object(d.object);
          if (from == nullptr) return false;
          for (const api::scenario_object& o : c.objects) {
            if (o.id == d.object) break;  // already the first of its kind
            if (o.kind == from->kind) {
              d.object = o.id;
              return true;
            }
          }
          return false;
        });
      }
    }

    // 2d. Migration steps, back to front, then the whole plan at once (a
    // plan-free scenario also stops running its scripts twice — a big cut).
    for (int i = static_cast<int>(s.migrations.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (i >= static_cast<int>(c.migrations.size())) return false;
        c.migrations.erase(c.migrations.begin() + i);
        return true;
      });
    }
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.migrations.empty()) return false;
      c.migrations.clear();
      return true;
    });

    // 3. Crash steps, back to front.
    for (int i = static_cast<int>(s.crash_steps.size()) - 1; i >= 0; --i) {
      progress |= try_edit(s, fails, [i](api::scripted_scenario& c) {
        if (i >= static_cast<int>(c.crash_steps.size())) return false;
        c.crash_steps.erase(c.crash_steps.begin() + i);
        return true;
      });
    }

    // 4. Knob simplification.
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.policy == core::runtime::fail_policy::skip) return false;
      c.policy = core::runtime::fail_policy::skip;
      return true;
    });
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (!c.shared_cache) return false;
      c.shared_cache = false;
      return true;
    });
    // Placement first simplifies to modulo (if the failure survives, the
    // routing policy is not the culprit) ...
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.placement == api::placement_policy{}) return false;
      c.placement = {};
      return true;
    });
    // ... then a sharded-backend scenario tries the single backend (if the
    // failure survives, it is not a cross-shard bug) ...
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.backend != api::exec_backend::sharded) return false;
      c.backend = api::exec_backend::single;
      return true;
    });
    // ... then the sharded-equivalence diff is dropped (shards -> 1): if the
    // failure still survives, the simpler single-backend artifact is the one
    // to debug.
    progress |= try_edit(s, fails, [](api::scripted_scenario& c) {
      if (c.shards <= 1) return false;
      c.shards = 1;
      return true;
    });

    // 5. Zero op arguments.
    for (int p : pids_of(s)) {
      std::size_t len =
          s.scripts.count(p) != 0 ? s.scripts.at(p).size() : 0;
      for (std::size_t i = 0; i < len; ++i) {
        progress |= try_edit(s, fails, [p, i](api::scripted_scenario& c) {
          auto cit = c.scripts.find(p);
          if (cit == c.scripts.end() || i >= cit->second.size()) return false;
          hist::op_desc& d = cit->second[i];
          if (d.code == hist::opcode::lock_try ||
              d.code == hist::opcode::lock_release) {
            return false;  // lock args are the caller pid, not a value
          }
          if (d.code == hist::opcode::cas) {
            // Preserve the old != new usage contract (detectable_cas.hpp):
            // simplify toward Cas(0, 1), never the degenerate Cas(0, 0).
            if (d.a == 0 && d.b == 1) return false;
            d.a = 0;
            d.b = 1;
            return true;
          }
          if (d.a == 0 && d.b == 0) return false;
          d.a = 0;
          d.b = 0;
          return true;
        });
      }
    }

    if (!progress) break;
  }
  return s;
}

}  // namespace detect::fuzz
