#include "fuzz/coverage.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "fuzz/axes.hpp"

namespace detect::fuzz {

namespace {

/// The opcode-mix coordinate: one entry per family touched by the scripts,
/// marked "*" when the scripts exercise the family's full opcode alphabet
/// (mutators AND readers) and "~" for a partial mix. Deliberately coarse —
/// a per-opcode bitmask would make nearly every scenario its own bucket,
/// and a signature that never repeats steers nothing.
std::string op_mix_of(const api::scripted_scenario& s) {
  const api::object_registry& reg = api::object_registry::global();
  std::map<std::string, std::pair<unsigned, unsigned>> mask_by_family;
  for (const auto& [pid, ops] : s.scripts) {
    for (const hist::op_desc& d : ops) {
      const api::scenario_object* o = s.find_object(d.object);
      if (o == nullptr || !reg.contains(o->kind)) continue;
      const api::op_family family = reg.at(o->kind).family;
      const std::vector<hist::opcode>& alphabet = api::family_opcodes(family);
      auto it = std::find(alphabet.begin(), alphabet.end(), d.code);
      if (it == alphabet.end()) continue;
      auto& [seen, full] = mask_by_family[api::family_name(family)];
      seen |= 1u << (it - alphabet.begin());
      full = (1u << alphabet.size()) - 1;
    }
  }
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, masks] : mask_by_family) {
    if (!first) os << "+";
    first = false;
    os << name << (masks.first == masks.second ? "*" : "~");
  }
  return os.str();
}

std::string kinds_of(const api::scripted_scenario& s) {
  std::vector<std::string> kinds;
  kinds.reserve(s.objects.size());
  for (const api::scenario_object& o : s.objects) kinds.push_back(o.kind);
  std::sort(kinds.begin(), kinds.end());
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
  std::ostringstream os;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (i != 0) os << "+";
    os << kinds[i];
  }
  return os.str();
}

}  // namespace

std::string bucket_signature::scenario_key() const {
  std::ostringstream os;
  os << "kinds=" << kinds << "|mix=" << op_mix << "|backend=" << backend
     << "|shards=" << shards << "|place=" << placement
     << "|mig=" << (migrated ? 1 : 0);
  for (const model_axis& ax : model_axes()) {
    os << "|" << ax.coord << "=" << this->*ax.bucket_field;
    if (ax.points_bucket != nullptr) {
      os << "|" << ax.points_coord << "=" << this->*ax.points_bucket;
    }
  }
  return os.str();
}

std::string bucket_signature::key() const {
  std::ostringstream os;
  os << scenario_key() << "|crash=" << crash_phase
     << "|rec=" << (recovery_seen ? 1 : 0)
     << "|decomp=" << (decomposed ? 1 : 0)
     << "|synth=" << (synthesized_interval ? 1 : 0)
     << "|lost=" << (lost_persistence ? 1 : 0)
     << "|pend=" << pending_bucket;
  return os.str();
}

bucket_signature scenario_signature(const api::scripted_scenario& s) {
  bucket_signature b;
  b.kinds = kinds_of(s);
  b.op_mix = op_mix_of(s);
  b.backend = api::backend_name(s.backend);
  b.shards = s.shards;
  // Kind only — a pinned policy's map would make nearly every pinned
  // scenario its own bucket, and a signature that never repeats steers
  // nothing.
  b.placement = api::placement_name(s.placement.kind);
  b.migrated = !s.migrations.empty();
  for (const model_axis& ax : model_axes()) {
    b.*ax.bucket_field = ax.get(s);
    if (ax.points_bucket != nullptr) {
      const std::size_t n = ax.points_live(s) ? ax.points(s)->size() : 0;
      b.*ax.points_bucket = static_cast<int>(std::min<std::size_t>(n, 3));
    }
  }
  return b;
}

bucket_signature bucket_of(const api::scripted_scenario& s,
                           const api::scripted_outcome& out) {
  bucket_signature b = scenario_signature(s);
  b.crash_phase =
      static_cast<int>(std::min<std::uint64_t>(out.report.crashes, 3));
  for (const hist::event& e : out.events) {
    if (e.kind == hist::event_kind::recover_begin ||
        e.kind == hist::event_kind::recover_result) {
      b.recovery_seen = true;
      break;
    }
  }
  b.decomposed = out.check.objects > 1;
  b.synthesized_interval = out.check.synthesized_interval;
  b.lost_persistence = out.report.lost_persistence;
  b.pending_bucket = static_cast<int>(
      std::min<std::uint64_t>(out.report.max_pending_stores, 3));
  return b;
}

bool coverage_map::record(const bucket_signature& b) {
  ++executed_;
  const bool novel = buckets_.insert(b.key()).second;
  // Touching a scenario key records it even when its bucket is a repeat, so
  // steering stops re-rolling keys whose outcome space is exhausted too.
  std::size_t& under = buckets_under_[b.scenario_key()];
  if (novel) {
    ++under;
    timeline_.emplace_back(executed_, buckets_.size());
  }
  return novel;
}

}  // namespace detect::fuzz
