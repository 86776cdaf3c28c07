#include "history/linearizer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace detect::hist {

void op_record::append_to(std::string& out) const {
  out += 'p';
  append_int(out, pid);
  out += ':';
  desc.append_to(out);
  out += " [";
  append_int(out, invoke_index);
  out += ',';
  if (response_index == k_npos) {
    out += "open";
  } else {
    append_int(out, response_index);
  }
  out += ']';
  if (has_response) {
    out += " -> ";
    append_int(out, response);
  }
  if (optional) out += " (optional)";
}

std::string op_record::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

namespace {

// Three exact tables key the search's memo. Each is open addressing with
// linear probing over a power-of-two slot array kept at most half full, and
// each grows geometrically, so a lookup allocates only when a table grows.

std::size_t mix(std::uint64_t x) {  // the splitmix64 finalizer
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

// The tables are reset between checks (see `workspace`). One that a large
// search grew past k_keep elements drops its storage on reset, so a thread
// keeps no large search's memory and a small check's reset stays short.
constexpr std::size_t k_keep = 1024;

/// Empties `v`, dropping its storage when it grew past k_keep elements.
template <class V>
void clear_for_reuse(V& v) {
  if (v.capacity() > k_keep) {
    V().swap(v);
  } else {
    v.clear();
  }
}

/// Sets every slot of an open-addressing table to `free`, shrinking it to
/// `initial` slots when it grew past k_keep.
template <class T>
void reset_slots(std::vector<T>& slots, std::size_t initial, T free) {
  if (slots.size() > k_keep) {
    slots = std::vector<T>(initial, free);
  } else {
    std::fill(slots.begin(), slots.end(), free);
  }
}

/// Slots of dense ids 0, 1, 2, ... filed by their keys' hashes; the keys
/// themselves live with the caller, which compares them (`same`) and
/// rehashes them (`hash_of`).
class id_index {
 public:
  /// The id whose key `same` accepts, or `count` (the caller's next id)
  /// filed as new; the flag tells which.
  template <class Same, class HashOf>
  std::pair<std::uint32_t, bool> find_or_add(std::size_t hash,
                                             std::uint32_t count, Same same,
                                             HashOf hash_of) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      if (same(slots_[i] - 1)) return {slots_[i] - 1, false};
    }
    if (2 * (std::size_t{count} + 1) <= slots_.size()) {
      slots_[i] = count + 1;
    } else {
      slots_.assign(2 * slots_.size(), 0);
      for (std::uint32_t id = 0; id < count; ++id) file(hash_of(id), id);
      file(hash, count);
    }
    return {count, true};
  }

  void reset() { reset_slots(slots_, k_initial, std::uint32_t{0}); }

 private:
  static constexpr std::size_t k_initial = 16;

  void file(std::size_t hash, std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }

  std::vector<std::uint32_t> slots_ =
      std::vector<std::uint32_t>(k_initial);  // id+1
};

/// Exact map from done masks to dense ids. Real-time order leaves few done
/// sets reachable (processes run their ops in sequence), so this table is
/// small even when the search is large.
class mask_interner {
 public:
  std::uint32_t intern(std::uint64_t done) {
    const auto count = static_cast<std::uint32_t>(masks_.size());
    const auto [id, fresh] = index_.find_or_add(
        mix(done), count, [&](std::uint32_t i) { return masks_[i] == done; },
        [&](std::uint32_t i) { return mix(masks_[i]); });
    if (fresh) masks_.push_back(done);
    return id;
  }

  void reset() {
    clear_for_reuse(masks_);
    index_.reset();
  }

 private:
  std::vector<std::uint64_t> masks_;  // by id
  id_index index_;
};

/// Exact map from serialize() text to dense ids. Every distinct state's text
/// lives once in one arena and is compared byte for byte on lookup, so two
/// states share an id only when their encodings are equal; the hash merely
/// finds the candidates.
class state_interner {
 public:
  std::uint32_t intern(const spec& state) {
    const std::size_t begin = arena_.size();
    state.serialize_to(arena_);  // tentatively the next id's text
    const std::string_view text(arena_.data() + begin, arena_.size() - begin);
    const auto count = static_cast<std::uint32_t>(ends_.size());
    const auto [id, fresh] = index_.find_or_add(
        hash(text), count, [&](std::uint32_t i) { return text_of(i) == text; },
        [&](std::uint32_t i) { return hash(text_of(i)); });
    if (fresh) {
      ends_.push_back(arena_.size());
    } else {
      arena_.resize(begin);
    }
    return id;
  }

  void reset() {
    clear_for_reuse(arena_);
    clear_for_reuse(ends_);
    index_.reset();
  }

 private:
  static std::size_t hash(std::string_view text) {
    return std::hash<std::string_view>{}(text);
  }
  std::string_view text_of(std::uint32_t id) const {
    const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {arena_.data() + begin, ends_[id] - begin};
  }

  std::string arena_;              // every interned text, back to back
  std::vector<std::size_t> ends_;  // end of id's text in arena_
  id_index index_;
};

/// The (done set, state) pairs the search has expanded, as (done id, state
/// id) packed into one word. Two keys are equal exactly when their done
/// masks and serialized states are.
class visited_set {
 public:
  /// Adds the pair; false when it was already present.
  bool insert(std::uint32_t done_id, std::uint32_t state_id) {
    const std::uint64_t key = std::uint64_t{done_id} << 32 | state_id;
    if (2 * (size_ + 1) > slots_.size()) {
      const std::vector<std::uint64_t> old = std::exchange(
          slots_, std::vector<std::uint64_t>(2 * slots_.size(), k_free));
      for (std::uint64_t k : old) {
        if (k != k_free) place(k);
      }
    }
    if (!place(key)) return false;
    ++size_;
    return true;
  }

  void reset() {
    reset_slots(slots_, k_initial, k_free);
    size_ = 0;
  }

 private:
  static constexpr std::size_t k_initial = 64;

  // No pair packs to this: it takes 2^32 - 1 distinct done masks and as
  // many distinct states, more than any search can hold in memory.
  static constexpr std::uint64_t k_free = ~std::uint64_t{0};

  // False when `key` is already present.
  bool place(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == k_free) {
        slots_[i] = key;
        return true;
      }
      if (slots_[i] == key) return false;
    }
  }

  std::vector<std::uint64_t> slots_ =
      std::vector<std::uint64_t>(k_initial, k_free);
  std::size_t size_ = 0;
};

/// The search's tables, one set per thread, reset on entry to each check
/// instead of allocated: a campaign runs thousands of checks of a few nodes
/// each, and building these tables cost more than searching them. A check
/// never yields while it holds them (nothing in the search suspends), so a
/// thread runs at most one check on them at a time.
struct workspace {
  /// Bit j of preds[i]: op j responded before op i was invoked.
  std::vector<std::uint64_t> preds;
  mask_interner done_ids;
  state_interner state_ids;
  visited_set visited;
  std::vector<std::pair<std::size_t, bool>> chosen;  // (index, dropped)

  void reset(std::size_t ops) {
    preds.assign(ops, 0);
    done_ids.reset();
    state_ids.reset();
    visited.reset();
    chosen.clear();
  }
};

workspace& thread_workspace() {
  thread_local workspace w;
  return w;
}

struct search {
  const std::vector<op_record>& ops;
  workspace& w;
  /// One reusable spec per depth: states[d] holds the state after the op
  /// linearized at depth d - 1, overwritten by each sibling branch.
  std::vector<std::unique_ptr<spec>> states;
  std::size_t budget;
  std::size_t nodes = 0;
  std::size_t best_depth = 0;

  search(const std::vector<op_record>& o, workspace& ws, std::size_t b)
      : ops(o), w(ws), states(o.size() + 1), budget(b) {
    w.reset(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = 0; j < ops.size(); ++j) {
        if (j == i) continue;
        if (ops[j].response_index != k_npos &&
            ops[j].response_index < ops[i].invoke_index) {
          w.preds[i] |= std::uint64_t{1} << j;
        }
      }
    }
  }

  // Returns true on success; false when this subtree has no linearization.
  // Throws std::length_error when the node budget is exhausted.
  bool dfs(std::uint64_t done, const spec& state) {
    std::size_t depth = static_cast<std::size_t>(std::popcount(done));
    best_depth = std::max(best_depth, depth);
    if (depth == ops.size()) return true;
    if (budget-- == 0) throw std::length_error("budget");
    ++nodes;

    if (!w.visited.insert(w.done_ids.intern(done),
                           w.state_ids.intern(state))) {
      return false;
    }

    // `state` is states[k] for some k <= depth (or the initial spec), so
    // overwriting states[depth + 1] per branch never clobbers it.
    std::unique_ptr<spec>& next = states[depth + 1];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if ((done & bit) != 0 || (w.preds[i] & ~done) != 0) continue;
      const std::uint64_t done2 = done | bit;
      // Branch 1: linearize op i here.
      if (next) {
        next->assign_from(state);
      } else {
        next = state.clone();
      }
      value_t resp = next->apply(ops[i].desc);
      if (!ops[i].has_response || resp == ops[i].response) {
        w.chosen.emplace_back(i, false);
        if (dfs(done2, *next)) return true;
        w.chosen.pop_back();
      }
      // Branch 2: drop op i (only if the model allows it).
      if (ops[i].optional) {
        w.chosen.emplace_back(i, true);
        if (dfs(done2, state)) return true;
        w.chosen.pop_back();
      }
    }
    return false;
  }
};

}  // namespace

lin_result check_linearizable(const std::vector<op_record>& ops,
                              const spec& initial, std::size_t node_budget) {
  lin_result r;
  if (ops.size() > 64) {
    r.error = "checker supports at most 64 operations per history; got " +
              std::to_string(ops.size());
    return r;
  }
  search s(ops, thread_workspace(), node_budget);
  try {
    if (s.dfs(0, initial)) {
      r.linearizable = true;
      r.nodes = s.nodes;
      r.witness.reserve(s.w.chosen.size());
      for (auto [idx, dropped] : s.w.chosen) {
        if (!dropped) r.witness.push_back(idx);
      }
      return r;
    }
  } catch (const std::length_error&) {
    r.exhausted_budget = true;
    r.nodes = s.nodes;
    r.error = "node budget exhausted (inconclusive)";
    return r;
  }
  r.nodes = s.nodes;
  r.error = "not linearizable; deepest prefix ordered ";
  append_int(r.error, s.best_depth);
  r.error += " of ";
  append_int(r.error, ops.size());
  r.error += " ops. Ops:\n";
  for (const auto& op : ops) {
    r.error += "  ";
    op.append_to(r.error);
    r.error += '\n';
  }
  return r;
}

}  // namespace detect::hist
