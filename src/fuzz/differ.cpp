#include "fuzz/differ.hpp"

#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

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

/// When are two same-scenario replays on different shard layouts comparable
/// response for response? Single-object scenarios are (the object's world
/// is deterministic wherever it lives) — except across a migration plan,
/// whose second script round runs on a world with a different history than
/// the one-world run's (which skips the migration). Crash steps are keyed
/// on each shard's own step counter, so a migrated object meets a different
/// crash schedule; and with several processes the fresh announcement board
/// changes the recovery scans' step counts, so the seeded scheduler's picks
/// realign. A single-proc crash-free run is neither scheduling- nor
/// crash-dependent, so it stays exactly comparable even across migrations.
bool responses_comparable(const api::scripted_scenario& s) {
  return s.objects.size() == 1 &&
         (s.migrations.empty() || (s.nprocs == 1 && s.crash_steps.empty()));
}

/// The driver behind every differential check: one scenario's variant
/// family. Every replay perturbs one dimension (shard layout, placement, one
/// object's implementation kind), so most per-object event streams repeat
/// verbatim and their linearizations are fingerprint-cache hits in the
/// family's one memo (see hist::lin_memo; its internal lock keeps it sound
/// under check_jobs > 1). Outcomes are cached by scenario, so a family
/// member two stages name — the primary as one side of the sharded diff,
/// a sharded layout as one of the placement variants, an already crash-free
/// scenario as its own crash-free base — is replayed once.
class variant_family {
 public:
  variant_family(std::uint64_t* replays, int check_jobs) : replays_(replays) {
    copt_.memo = &memo_;
    copt_.jobs = check_jobs;
  }

  /// The outcome of `s`, replayed on first request — into `into` when
  /// given (it must outlive the family), else into storage the family owns.
  const api::scripted_outcome& replay(const api::scripted_scenario& s,
                                      api::scripted_outcome* into = nullptr) {
    for (const auto& [scenario, outcome] : seen_) {
      if (scenario == s) return *outcome;
    }
    if (replays_ != nullptr) ++*replays_;
    if (into == nullptr) into = &owned_.emplace_back();
    *into = api::replay_unformatted(s, copt_);
    seen_.emplace_back(s, into);
    return *into;
  }

  /// Single vs sharded(`s.shards`) equivalence.
  diff_report sharded(const api::scripted_scenario& s) {
    api::scripted_scenario one_world = s;
    one_world.backend = api::exec_backend::single;
    api::scripted_scenario split = s;
    split.backend = api::exec_backend::sharded;
    return compare(one_world, "single", split,
                   "sharded(" + std::to_string(s.shards) + ")",
                   responses_comparable(s));
  }

  /// Sharded `s` routed by modulo vs hash, then modulo vs range.
  diff_report placement(const api::scripted_scenario& s) {
    auto routed = [&s](api::placement_kind kind) {
      api::scripted_scenario v = s;
      v.backend = api::exec_backend::sharded;
      v.placement = {};
      v.placement.kind = kind;
      return v;
    };
    const api::scripted_scenario modulo = routed(api::placement_kind::modulo);
    for (api::placement_kind kind :
         {api::placement_kind::hash, api::placement_kind::range}) {
      diff_report d = compare(
          modulo, "sharded/modulo", routed(kind),
          std::string("sharded/") + api::placement_name(kind),
          responses_comparable(s));
      if (!d.ok) return d;
    }
    return {};
  }

  /// `s` vs `s` with object `index`'s kind substituted by `variant_kind`,
  /// both crash-free unless the crash plan is comparable. Cross-
  /// implementation replays only match response for response when single-
  /// proc and crash-free.
  diff_report variant(const api::scripted_scenario& s, std::size_t index,
                      const std::string& variant_kind) {
    const api::scripted_scenario base =
        crashes_comparable(s, index, variant_kind) ? s : crash_free(s);
    api::scripted_scenario substituted = base;
    substituted.objects[index].kind = variant_kind;
    return compare(base, "declared", substituted,
                   variant_kind + "@object " +
                       std::to_string(base.objects[index].id),
                   base.nprocs == 1 && base.crash_steps.empty());
  }

 private:
  /// Replay `a` then `b` (each at most once per family) and diff run health,
  /// verdicts and — when `compare_responses` — the response streams.
  diff_report compare(const api::scripted_scenario& a_scenario,
                      const std::string& a_name,
                      const api::scripted_scenario& b_scenario,
                      const std::string& b_name, bool compare_responses) {
    const api::scripted_outcome& a = replay(a_scenario);
    const api::scripted_outcome& b = replay(b_scenario);
    diff_report r;
    auto fail = [&](const std::string& what) {
      r.ok = false;
      std::ostringstream os;
      os << "differ: " << what << "\n  scenario: " << describe(a_scenario)
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

  hist::lin_memo memo_;
  hist::check_options copt_;
  std::uint64_t* replays_;
  std::deque<api::scripted_outcome> owned_;  // stable addresses
  std::vector<std::pair<api::scripted_scenario, const api::scripted_outcome*>>
      seen_;
};

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

diff_report diff_against(const api::scripted_scenario& s,
                         std::uint32_t object_id,
                         const std::string& variant_kind) {
  return variant_family(nullptr, 1).variant(s, index_of_object(s, object_id),
                                            variant_kind);
}

diff_report diff_against(const api::scripted_scenario& s,
                         const std::string& variant_kind) {
  return diff_against(s, s.primary().id, variant_kind);
}

std::string check_scenario(const api::scripted_scenario& s, bool diff,
                           std::uint64_t* replays,
                           api::scripted_outcome* primary_out,
                           bool placement, int check_jobs) {
  variant_family family(replays, check_jobs);
  const api::scripted_outcome& primary = family.replay(s, primary_out);
  // The family's replays carry no log text: the primary's is the only one
  // anyone reads, through `primary_out` or the checker's rejection below.
  if (primary_out != nullptr) {
    primary_out->log_text = hist::format_log(primary_out->events);
  }
  const std::string& primary_kind = s.primary().kind;
  if (primary.report.hit_step_limit) {
    return "replay of " + primary_kind + " hit the step limit (" +
           std::to_string(primary.report.steps) + " steps; " +
           primary.report.limit_note + ")";
  }
  if (!primary.check.ok) {
    return "checker rejected " + primary_kind + ": " + primary.check.message +
           "\n" +
           (primary_out != nullptr ? primary_out->log_text
                                   : hist::format_log(primary.events));
  }

  if (s.shards > 1 && s.backend != api::exec_backend::threads) {
    diff_report d = family.sharded(s);
    if (!d.ok) return d.message;
  }
  if (placement && s.shards > 1) {
    diff_report d = family.placement(s);
    if (!d.ok) return d.message;
  }
  if (!diff) return {};

  for (std::size_t index = 0; index < s.objects.size(); ++index) {
    for (const std::string& variant_kind : variants_of(s.objects[index].kind)) {
      diff_report d = family.variant(s, index, variant_kind);
      if (!d.ok) return d.message;
    }
  }
  return {};
}

}  // namespace detect::fuzz
