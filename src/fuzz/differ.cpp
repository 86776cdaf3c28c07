#include "fuzz/differ.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "fuzz/axes.hpp"

namespace detect::fuzz {

namespace {

/// (pid, opcode, value) triples of every normally-returned response, in log
/// order — the observable behavior a deterministic replay must reproduce.
std::vector<std::tuple<int, hist::opcode, hist::value_t>> responses(
    const std::vector<hist::event>& events) {
  std::vector<std::tuple<int, hist::opcode, hist::value_t>> out;
  for (const hist::event& e : events) {
    if (e.kind == hist::event_kind::response) {
      out.emplace_back(e.pid, e.desc.code, e.value);
    }
  }
  return out;
}

std::string describe(const api::scripted_scenario& s) {
  std::ostringstream os;
  os << "objects=";
  for (std::size_t i = 0; i < s.objects.size(); ++i) {
    if (i != 0) os << ",";
    os << s.objects[i].id << ":" << s.objects[i].kind;
  }
  os << " procs=" << s.nprocs << " ops=" << s.total_ops()
     << " crashes=" << s.crash_steps.size()
     << " policy=" << api::fail_policy_name(s.policy)
     << " backend=" << api::backend_name(s.backend) << "/" << s.shards
     << (s.shared_cache ? " shared_cache" : "") << describe_models(s);
  return os.str();
}

/// The comparison core shared by the variant diff and the sharded-
/// equivalence diff: `a` and `b` are outcomes of the identical scenario
/// `base` replayed as `a_name` and `b_name`. Response streams are compared
/// only when `compare_responses` — the caller knows whether both replays
/// were deterministic.
diff_report compare_replays(const api::scripted_scenario& base,
                            const api::scripted_outcome& a,
                            const std::string& a_name,
                            const api::scripted_outcome& b,
                            const std::string& b_name,
                            bool compare_responses) {
  diff_report r;
  auto fail = [&](const std::string& what) {
    r.ok = false;
    std::ostringstream os;
    os << "differ: " << what << "\n  scenario: " << describe(base)
       << "\n  variant: " << b_name;
    r.message = os.str();
    return r;
  };

  if (a.report.hit_step_limit) {
    return fail(a_name + " hit the step limit (" + a.report.limit_note + ")");
  }
  if (b.report.hit_step_limit) {
    return fail(b_name + " hit the step limit (" + b.report.limit_note + ")");
  }
  if (!a.check.ok) {
    return fail(a_name + " failed the checker: " + a.check.message);
  }
  if (!b.check.ok) {
    return fail(b_name + " failed the checker: " + b.check.message);
  }
  if (!compare_responses) return r;

  auto ra = responses(a.events);
  auto rb = responses(b.events);
  if (ra.size() != rb.size()) {
    return fail("response counts diverge: " + a_name + "=" +
                std::to_string(ra.size()) + " " + b_name + "=" +
                std::to_string(rb.size()));
  }
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i] != rb[i]) {
      std::ostringstream os;
      os << "response " << i << " diverges: " << a_name << " "
         << hist::opcode_name(std::get<1>(ra[i])) << " -> "
         << std::get<2>(ra[i]) << " vs " << b_name << " "
         << hist::opcode_name(std::get<1>(rb[i])) << " -> "
         << std::get<2>(rb[i]);
      return fail(os.str());
    }
  }
  return r;
}

}  // namespace

std::vector<std::string> variants_of(const std::string& kind) {
  static const std::map<std::string, std::vector<std::string>> table = {
      {"reg", {"attiya_reg", "nrl_reg", "plain_reg", "stripped_reg"}},
      {"cas", {"bendavid_cas", "plain_cas", "stripped_cas"}},
      {"counter", {"plain_counter", "stripped_counter"}},
      {"swap", {"stripped_swap"}},
      {"tas", {"stripped_tas"}},
      {"queue", {"stripped_queue"}},
      {"stack", {"stripped_stack"}},
  };
  auto it = table.find(kind);
  if (it == table.end()) return {};
  return it->second;
}

namespace {

bool all_objects_detectable(const api::scripted_scenario& s) {
  const api::object_registry& reg = api::object_registry::global();
  for (const api::scenario_object& o : s.objects) {
    if (reg.contains(o.kind) && !reg.at(o.kind).detectable) return false;
  }
  return true;
}

/// True when substituting object `index`'s kind with `variant_kind` can be
/// compared with the crash plan intact; false when the comparison must run
/// crash-free (variant or any declared object non-detectable). Validates
/// the family match.
bool crashes_comparable(const api::scripted_scenario& s, std::size_t index,
                        const std::string& variant_kind) {
  const api::object_registry& reg = api::object_registry::global();
  const api::kind_info& primary_info = reg.at(s.objects[index].kind);
  const api::kind_info& variant_info = reg.at(variant_kind);
  if (primary_info.family != variant_info.family) {
    throw std::invalid_argument("diff_against: family mismatch between '" +
                                s.objects[index].kind + "' and '" +
                                variant_kind + "'");
  }
  return variant_info.detectable && all_objects_detectable(s);
}

api::scripted_scenario crash_free(api::scripted_scenario s) {
  s.crash_steps.clear();
  s.policy = core::runtime::fail_policy::skip;
  return s;
}

std::size_t index_of_object(const api::scripted_scenario& s,
                            std::uint32_t object_id) {
  for (std::size_t i = 0; i < s.objects.size(); ++i) {
    if (s.objects[i].id == object_id) return i;
  }
  throw std::invalid_argument("diff_against: undeclared object id " +
                              std::to_string(object_id));
}

/// Cross-implementation replays are only deterministically comparable
/// response-for-response when single-proc and crash-free.
diff_report compare_variant_outcomes(const api::scripted_scenario& base,
                                     const api::scripted_outcome& a,
                                     const std::string& variant_name,
                                     const api::scripted_outcome& b) {
  return compare_replays(base, a, "declared", b, variant_name,
                         base.nprocs == 1 && base.crash_steps.empty());
}

/// Core of the per-object variant diff, given the already-replayed outcome
/// `a` of `base` (one replay, not two — check_scenario hands in the primary
/// outcome it already has).
diff_report diff_object_against(const api::scripted_scenario& base,
                                const api::scripted_outcome& a,
                                std::size_t index,
                                const std::string& variant_kind,
                                const hist::check_options& copt = {}) {
  api::scripted_scenario variant = base;
  variant.objects[index].kind = variant_kind;
  api::scripted_outcome b = api::replay(variant, copt);
  return compare_variant_outcomes(
      base, a,
      variant_kind + "@object " + std::to_string(base.objects[index].id), b);
}

}  // namespace

diff_report diff_against(const api::scripted_scenario& s,
                         std::uint32_t object_id,
                         const std::string& variant_kind) {
  const std::size_t index = index_of_object(s, object_id);
  api::scripted_scenario base =
      crashes_comparable(s, index, variant_kind) ? s : crash_free(s);
  hist::lin_memo memo;  // objects untouched by the substitution check once
  hist::check_options copt;
  copt.memo = &memo;
  return diff_object_against(base, api::replay(base, copt), index,
                             variant_kind, copt);
}

diff_report diff_against(const api::scripted_scenario& s,
                         const std::string& variant_kind) {
  return diff_against(s, s.primary().id, variant_kind);
}

namespace {

/// When are two same-scenario replays on different shard layouts comparable
/// response for response? Single-object scenarios are (the object's world
/// is deterministic wherever it lives) — except that a migration plan with
/// several processes re-runs the scripts on a world whose announcement
/// board is fresh, so the per-process recovery scans take different step
/// counts than the continuing world's and the seeded scheduler's picks
/// realign; single-proc runs are scheduling-independent, so they stay
/// exactly comparable even across migrations.
bool responses_comparable(const api::scripted_scenario& s) {
  return s.objects.size() == 1 && (s.migrations.empty() || s.nprocs == 1);
}

/// Core of the sharded-equivalence diff, given the already-replayed
/// single-backend outcome `a` of `base`. Response streams compare only on
/// single-object scenarios (see diff_sharded's header comment).
diff_report diff_sharded_against(const api::scripted_scenario& base,
                                 const api::scripted_outcome& a, int shards,
                                 const hist::check_options& copt = {}) {
  api::scripted_scenario variant = base;
  variant.backend = api::exec_backend::sharded;
  variant.shards = std::max(1, shards);
  api::scripted_outcome b = api::replay(variant, copt);
  return compare_replays(base, a, "single", b,
                         "sharded(" + std::to_string(variant.shards) + ")",
                         responses_comparable(base));
}

}  // namespace

diff_report diff_sharded(const api::scripted_scenario& s, int shards) {
  api::scripted_scenario base = s;
  base.backend = api::exec_backend::single;
  hist::lin_memo memo;  // both layouts produce identical per-object streams
  hist::check_options copt;
  copt.memo = &memo;
  return diff_sharded_against(base, api::replay(base, copt), shards, copt);
}

namespace {

/// Core of the placement-equivalence diff. `cached`, when non-null, is the
/// already-replayed outcome of the sharded variant carrying `cached_kind`
/// (check_scenario reuses the primary replay of a sharded-backend
/// scenario). `replays` counts the fresh replays performed.
diff_report diff_placement_impl(const api::scripted_scenario& s,
                                const api::scripted_outcome* cached,
                                api::placement_kind cached_kind,
                                std::uint64_t* replays,
                                const hist::check_options& copt = {}) {
  diff_report r;
  if (s.shards < 2) return r;
  api::scripted_scenario base = s;
  base.backend = api::exec_backend::sharded;

  const bool compare_responses = responses_comparable(s);
  // `first` and `out` point at `cached` or at the fresh replay held in
  // `first_fresh` / `fresh`, so the cached outcome is never copied.
  std::optional<api::scripted_outcome> first_fresh;
  std::optional<api::scripted_outcome> fresh;
  const api::scripted_outcome* first = nullptr;
  std::string first_name;
  for (api::placement_kind kind :
       {api::placement_kind::modulo, api::placement_kind::hash,
        api::placement_kind::range}) {
    api::scripted_scenario variant = base;
    variant.placement = {};
    variant.placement.kind = kind;
    const api::scripted_outcome* out = cached;
    if (cached == nullptr || cached_kind != kind) {
      if (replays != nullptr) ++*replays;
      auto& slot = first == nullptr ? first_fresh : fresh;
      slot = api::replay(variant, copt);
      out = &*slot;
    }
    const std::string name =
        std::string("sharded/") + api::placement_name(kind);
    if (first == nullptr) {
      first = out;
      first_name = name;
      continue;
    }
    diff_report d = compare_replays(variant, *first, first_name, *out, name,
                                    compare_responses);
    if (!d.ok) return d;
  }
  return r;
}

}  // namespace

diff_report diff_placement(const api::scripted_scenario& s) {
  hist::lin_memo memo;  // placement is routing-only: object streams repeat
  hist::check_options copt;
  copt.memo = &memo;
  return diff_placement_impl(s, nullptr, api::placement_kind::modulo, nullptr,
                             copt);
}

std::string verify_scenario(const api::scripted_scenario& s) {
  return check_scenario(s, /*diff=*/false);
}

std::string check_scenario(const api::scripted_scenario& s, bool diff,
                           std::uint64_t* replays,
                           api::scripted_outcome* primary_out,
                           bool placement, int check_jobs) {
  auto count = [replays](std::uint64_t n) {
    if (replays != nullptr) *replays += n;
  };
  // One check memo for the scenario's whole variant family: every replay
  // below perturbs one dimension (shard layout, placement, one object's
  // implementation kind), so most per-object event streams repeat verbatim
  // and their linearizations are fingerprint-cache hits (see hist::lin_memo).
  // The memo's internal lock also makes it sound under check_jobs > 1.
  hist::lin_memo memo;
  hist::check_options copt;
  copt.memo = &memo;
  copt.jobs = check_jobs;
  count(1);
  api::scripted_outcome primary = api::replay(s, copt);
  if (primary_out != nullptr) *primary_out = primary;
  const std::string& primary_kind = s.primary().kind;
  if (primary.report.hit_step_limit) {
    return "replay of " + primary_kind + " hit the step limit (" +
           std::to_string(primary.report.steps) + " steps; " +
           primary.report.limit_note + ")";
  }
  if (!primary.check.ok) {
    return "checker rejected " + primary_kind + ": " + primary.check.message +
           "\n" + primary.log_text;
  }

  // Single-vs-sharded equivalence, whenever the scenario carries a shard
  // count (generated scenarios draw it; see gen_config::max_shards). Part of
  // the base oracle, not the variant pass — the shrinker must preserve it.
  // When the scenario runs single, `primary` is the single-side replay and
  // only the sharded side is fresh; when it runs sharded, the roles flip.
  if (s.shards > 1 && s.backend == api::exec_backend::single) {
    count(1);
    diff_report d = diff_sharded_against(s, primary, s.shards, copt);
    if (!d.ok) return d.message;
  } else if (s.shards > 1 && s.backend == api::exec_backend::sharded) {
    api::scripted_scenario base = s;
    base.backend = api::exec_backend::single;
    count(1);
    api::scripted_outcome a = api::replay(base, copt);
    diff_report d = compare_replays(
        base, a, "single", primary,
        "sharded(" + std::to_string(s.shards) + ")",
        responses_comparable(s));
    if (!d.ok) return d.message;
  }

  // Placement equivalence (the --placement-equiv campaigns): the identical
  // scenario under modulo vs hash vs range routing must produce the same
  // verdicts. A sharded-backend primary whose own placement is one of the
  // three serves as that variant's replay.
  if (placement && s.shards > 1) {
    const bool reuse = s.backend == api::exec_backend::sharded &&
                       s.placement.kind != api::placement_kind::pinned;
    diff_report d = diff_placement_impl(s, reuse ? &primary : nullptr,
                                        s.placement.kind, replays, copt);
    if (!d.ok) return d.message;
  }
  if (!diff) return {};

  // Per-object variant substitution. Primary outcomes are shared across
  // variants: `primary` serves every crash-comparable substitution; the
  // crash-free base (needed whenever plain_*/stripped_* kinds are in play)
  // is replayed lazily at most once and reused across objects.
  std::optional<api::scripted_scenario> cf_base;
  std::optional<api::scripted_outcome> cf_fresh;
  const api::scripted_outcome* cf_primary = nullptr;
  for (std::size_t index = 0; index < s.objects.size(); ++index) {
    for (const std::string& variant_kind : variants_of(s.objects[index].kind)) {
      const bool as_is = crashes_comparable(s, index, variant_kind);
      const api::scripted_scenario* base = &s;
      const api::scripted_outcome* a = &primary;
      if (!as_is) {
        if (!cf_base.has_value()) {
          cf_base = crash_free(s);
          if (s.crash_steps.empty() &&
              s.policy == core::runtime::fail_policy::skip) {
            cf_primary = &primary;  // already crash-free: reuse the replay
          } else {
            count(1);
            cf_fresh = api::replay(*cf_base, copt);
            cf_primary = &*cf_fresh;
          }
        }
        base = &*cf_base;
        a = cf_primary;
      }
      count(1);
      diff_report d = diff_object_against(*base, *a, index, variant_kind,
                                          copt);
      if (!d.ok) return d.message;
    }
  }
  return {};
}

}  // namespace detect::fuzz
