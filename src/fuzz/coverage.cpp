#include "fuzz/coverage.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "fuzz/axes.hpp"

namespace detect::fuzz {

namespace {

/// The opcode-mix coordinate: one entry per family touched by the scripts,
/// marked "*" when the scripts exercise the family's full opcode alphabet
/// (mutators AND readers) and "~" for a partial mix. Deliberately coarse —
/// a per-opcode bitmask would make nearly every scenario its own bucket,
/// and a signature that never repeats steers nothing.
std::string op_mix_of(const api::scripted_scenario& s) {
  // Each declared object's registry entry, looked up once (null for a kind
  // the registry does not know).
  const api::object_registry& reg = api::object_registry::global();
  std::vector<const api::kind_info*> info_of;
  info_of.reserve(s.objects.size());
  for (const api::scenario_object& o : s.objects) {
    info_of.push_back(reg.contains(o.kind) ? &reg.at(o.kind) : nullptr);
  }
  struct family_mix {
    api::op_family family;
    unsigned seen = 0;
    unsigned full = 0;
  };
  std::vector<family_mix> mixes;  // one per family touched
  for (const auto& [pid, ops] : s.scripts) {
    for (const hist::op_desc& d : ops) {
      const api::scenario_object* o = s.find_object(d.object);
      if (o == nullptr) continue;
      const api::kind_info* info = info_of[o - s.objects.data()];
      if (info == nullptr) continue;
      const std::vector<hist::opcode>& alphabet =
          api::family_opcodes(info->family);
      auto it = std::find(alphabet.begin(), alphabet.end(), d.code);
      if (it == alphabet.end()) continue;
      auto mix = std::find_if(
          mixes.begin(), mixes.end(),
          [&](const family_mix& m) { return m.family == info->family; });
      if (mix == mixes.end()) mix = mixes.insert(mix, {info->family});
      mix->seen |= 1u << (it - alphabet.begin());
      mix->full = (1u << alphabet.size()) - 1;
    }
  }
  std::sort(mixes.begin(), mixes.end(),
            [](const family_mix& a, const family_mix& b) {
              return std::strcmp(api::family_name(a.family),
                                 api::family_name(b.family)) < 0;
            });
  std::string out;
  for (const family_mix& m : mixes) {
    if (!out.empty()) out += '+';
    out += api::family_name(m.family);
    out += m.seen == m.full ? '*' : '~';
  }
  return out;
}

std::string kinds_of(const api::scripted_scenario& s) {
  std::vector<std::string> kinds;
  kinds.reserve(s.objects.size());
  for (const api::scenario_object& o : s.objects) kinds.push_back(o.kind);
  std::sort(kinds.begin(), kinds.end());
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
  std::string out;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (i != 0) out += '+';
    out += kinds[i];
  }
  return out;
}

void append_coord(std::string& out, const char* name, std::string_view value) {
  out += '|';
  out += name;
  out += '=';
  out += value;
}

void append_coord(std::string& out, const char* name, int value) {
  out += '|';
  out += name;
  out += '=';
  hist::append_int(out, value);
}

void append_scenario_key(const bucket_signature& b, std::string& out) {
  out += "kinds=";
  out += b.kinds;
  append_coord(out, "mix", b.op_mix);
  append_coord(out, "backend", b.backend);
  append_coord(out, "shards", b.shards);
  append_coord(out, "place", b.placement);
  append_coord(out, "mig", b.migrated ? 1 : 0);
  for (const model_axis& ax : model_axes()) {
    append_coord(out, ax.coord, b.*ax.bucket_field);
    if (ax.points_bucket != nullptr) {
      append_coord(out, ax.points_coord, b.*ax.points_bucket);
    }
  }
}

void append_outcome(const bucket_signature& b, std::string& out) {
  append_coord(out, "crash", b.crash_phase);
  append_coord(out, "rec", b.recovery_seen ? 1 : 0);
  append_coord(out, "decomp", b.decomposed ? 1 : 0);
  append_coord(out, "synth", b.synthesized_interval ? 1 : 0);
  append_coord(out, "lost", b.lost_persistence ? 1 : 0);
  append_coord(out, "pend", b.pending_bucket);
}

}  // namespace

std::string bucket_signature::scenario_key() const {
  std::string out;
  append_scenario_key(*this, out);
  return out;
}

std::string bucket_signature::key() const {
  std::string out;
  append_scenario_key(*this, out);
  append_outcome(*this, out);
  return out;
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
  last_key_.clear();
  append_scenario_key(b, last_key_);
  const std::size_t scenario_length = last_key_.size();
  append_outcome(b, last_key_);
  const bool novel = buckets_.insert(last_key_).second;
  // Touching a scenario key records it even when its bucket is a repeat, so
  // steering stops re-rolling keys whose outcome space is exhausted too.
  const std::string_view scenario(last_key_.data(), scenario_length);
  auto under = buckets_under_.find(scenario);
  if (under == buckets_under_.end()) {
    under = buckets_under_.emplace(std::string(scenario), 0).first;
  }
  if (novel) {
    ++under->second;
    timeline_.emplace_back(executed_, buckets_.size());
  }
  return novel;
}

}  // namespace detect::fuzz
