// Scripted-scenario replay and serialization.
#include "api/replay.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace detect::api {

const scenario_object& scripted_scenario::primary() const {
  if (objects.empty()) {
    throw std::logic_error("scripted_scenario: no objects declared");
  }
  return objects.front();
}

const scenario_object* scripted_scenario::find_object(std::uint32_t id) const {
  for (const scenario_object& o : objects) {
    if (o.id == id) return &o;
  }
  return nullptr;
}

std::uint32_t scripted_scenario::add_object(std::string kind,
                                            object_params params) {
  std::uint32_t id = 0;
  while (find_object(id) != nullptr) ++id;
  objects.push_back({id, std::move(kind), params});
  return id;
}

namespace {

std::unique_ptr<executor> build_executor(const scripted_scenario& s) {
  if (s.objects.empty()) {
    throw std::invalid_argument("replay: scenario declares no objects");
  }
  for (const auto& [id, shard] : s.migrations) {
    if (s.find_object(id) == nullptr) {
      throw std::invalid_argument("replay: migration targets undeclared "
                                  "object " + std::to_string(id));
    }
    if (shard < 0 || shard >= std::max(1, s.shards)) {
      throw std::invalid_argument(
          "replay: migration of object " + std::to_string(id) +
          " names shard " + std::to_string(shard) + ", but the scenario has " +
          std::to_string(std::max(1, s.shards)) + " shard(s)");
    }
  }
  executor::builder b;
  b.backend(s.backend)
      .procs(s.nprocs)
      .fail_policy(s.policy)
      .seed(s.sched_seed)
      .schedule(s.sched)
      .persist(s.persist)
      .visibility(s.visibility);
  if (!s.drain_steps.empty()) b.drain_at(s.drain_steps);
  // `shards` doubles as the equivalence-diff knob on the one-world backends
  // (see the field comment), where build() would reject it as a world count.
  // A scenario's shards run inline, in order, on the calling thread: a
  // replay is a few dozen steps, far less than a pool handoff costs, and
  // campaigns already run in parallel across fuzz_main --jobs workers.
  if (s.backend == exec_backend::sharded) {
    b.shards(s.shards).placement(s.placement).pool_threads(1);
  }
  if (!s.crash_steps.empty()) b.crash_at(s.crash_steps);
  if (s.shared_cache) b.shared_cache();
  std::unique_ptr<executor> ex = b.build();
  // Declared ids are honored verbatim: on the sharded backend id and
  // declaration order feed the placement policy, so routing is part of the
  // scenario's identity.
  for (const scenario_object& o : s.objects) ex->add_as(o.id, o.kind, o.params);
  for (const auto& [pid, ops] : s.scripts) {
    if (pid < 0 || pid >= s.nprocs) {
      throw std::invalid_argument("replay: script pid " + std::to_string(pid) +
                                  " out of range for " +
                                  std::to_string(s.nprocs) + " procs");
    }
    for (const hist::op_desc& d : ops) {
      if (s.find_object(d.object) == nullptr) {
        throw std::invalid_argument(
            "replay: op " + std::string(hist::opcode_name(d.code)) +
            " targets undeclared object " + std::to_string(d.object));
      }
    }
    ex->script(pid, ops);
  }
  return ex;
}

}  // namespace

scripted_outcome replay_unformatted(const scripted_scenario& s,
                                    const hist::check_options& opt) {
  std::unique_ptr<executor> ex = build_executor(s);
  scripted_outcome out;
  out.report = ex->run();
  if (!s.migrations.empty() && !out.report.hit_step_limit) {
    // Round two: apply the migration plan (a semantic no-op on one-world
    // backends, skipped there so cross-backend diffs compare the same op
    // sequence), then run the same scripts again over the transplanted
    // state.
    if (ex->backend() == exec_backend::sharded) {
      for (const auto& [id, shard] : s.migrations) ex->migrate(id, shard);
    }
    for (const auto& [pid, ops] : s.scripts) ex->script(pid, ops);
    sim::run_report second = ex->run();
    // Per-world step counters are cumulative across runs, so the second
    // report's step count already covers round one.
    out.report.steps = second.steps;
    out.report.drain_steps = second.drain_steps;
    out.report.max_pending_stores = second.max_pending_stores;
    out.report.crashes += second.crashes;
    out.report.hit_step_limit |= second.hit_step_limit;
    if (out.report.limit_note.empty()) out.report.limit_note = second.limit_note;
    out.report.lost_persistence |= second.lost_persistence;
  }
  // Memo entries must never cross memory-model pairs: the differ shares one
  // memo over a scenario's variant family, and a verdict computed under
  // (sc, strict) is not a verdict about the same stream replayed under
  // (tso, buffered) — see check_options::model_salt.
  hist::check_options salted = opt;
  salted.model_salt = (static_cast<std::uint64_t>(s.visibility) << 8) |
                      static_cast<std::uint64_t>(s.persist);
  out.check = ex->check(salted);
  out.events = ex->events();
  return out;
}

scripted_outcome replay(const scripted_scenario& s,
                        const hist::check_options& opt) {
  scripted_outcome out = replay_unformatted(s, opt);
  out.log_text = hist::format_log(out.events);
  return out;
}

// ---------------------------------------------------------------------------
// opcode families

const std::vector<hist::opcode>& family_opcodes(op_family family) {
  using hist::opcode;
  static const std::vector<opcode> reg_ops = {opcode::reg_write,
                                              opcode::reg_read};
  static const std::vector<opcode> swap_ops = {opcode::swap, opcode::reg_read};
  static const std::vector<opcode> cas_ops = {opcode::cas, opcode::cas_read};
  static const std::vector<opcode> ctr_ops = {opcode::ctr_add,
                                              opcode::ctr_read};
  static const std::vector<opcode> tas_ops = {opcode::tas_set,
                                              opcode::tas_reset};
  static const std::vector<opcode> queue_ops = {opcode::enq, opcode::deq};
  static const std::vector<opcode> stack_ops = {opcode::push, opcode::pop};
  static const std::vector<opcode> max_ops = {opcode::max_write,
                                              opcode::max_read};
  static const std::vector<opcode> lock_ops = {opcode::lock_try,
                                               opcode::lock_release};
  switch (family) {
    case op_family::reg: return reg_ops;
    case op_family::swap: return swap_ops;
    case op_family::cas: return cas_ops;
    case op_family::counter: return ctr_ops;
    case op_family::tas: return tas_ops;
    case op_family::queue: return queue_ops;
    case op_family::stack: return stack_ops;
    case op_family::max_reg: return max_ops;
    case op_family::lock: return lock_ops;
  }
  throw std::logic_error("family_opcodes: unhandled family");
}

const char* family_name(op_family family) noexcept {
  switch (family) {
    case op_family::reg: return "reg";
    case op_family::swap: return "swap";
    case op_family::cas: return "cas";
    case op_family::counter: return "counter";
    case op_family::tas: return "tas";
    case op_family::queue: return "queue";
    case op_family::stack: return "stack";
    case op_family::max_reg: return "max_reg";
    case op_family::lock: return "lock";
  }
  return "?";
}

hist::opcode opcode_from_name(const std::string& name) {
  // Built from the registered kinds' family alphabets (plus nop): a new
  // opcode is parseable as soon as some registry kind speaks it, with no
  // enum-bound to forget — a family nothing registers cannot appear in a
  // dump in the first place.
  static const std::map<std::string, hist::opcode> table = [] {
    std::map<std::string, hist::opcode> t;
    t.emplace(hist::opcode_name(hist::opcode::nop), hist::opcode::nop);
    const object_registry& reg = object_registry::global();
    for (const std::string& kind : reg.kinds()) {
      for (hist::opcode c : family_opcodes(reg.at(kind).family)) {
        t.emplace(hist::opcode_name(c), c);
      }
    }
    return t;
  }();
  auto it = table.find(name);
  if (it == table.end()) {
    throw std::invalid_argument("opcode_from_name: unknown opcode '" + name +
                                "'");
  }
  return it->second;
}

const char* fail_policy_name(core::runtime::fail_policy p) noexcept {
  return p == core::runtime::fail_policy::retry ? "retry" : "skip";
}

core::runtime::fail_policy fail_policy_from_name(const std::string& name) {
  if (name == "retry") return core::runtime::fail_policy::retry;
  if (name == "skip") return core::runtime::fail_policy::skip;
  throw std::invalid_argument("fail_policy_from_name: unknown policy '" +
                              name + "'");
}

// ---------------------------------------------------------------------------
// dump / parse

std::string dump(const scripted_scenario& s) {
  std::ostringstream os;
  os << "# detect scripted_scenario v6\n";
  for (const scenario_object& o : s.objects) {
    os << "object " << o.id << " " << o.kind << " " << o.params.init << " "
       << o.params.capacity << "\n";
  }
  os << "procs " << s.nprocs << "\n";
  os << "policy " << fail_policy_name(s.policy) << "\n";
  os << "shared_cache " << (s.shared_cache ? 1 : 0) << "\n";
  os << "sched_seed " << s.sched_seed << "\n";
  os << "sched " << s.sched.to_string() << "\n";
  os << "persist " << nvm::persist_name(s.persist) << "\n";
  os << "visibility " << wmm::visibility_name(s.visibility) << "\n";
  os << "drain_steps";
  for (std::uint64_t k : s.drain_steps) os << " " << k;
  os << "\n";
  os << "backend " << backend_name(s.backend) << "\n";
  os << "shards " << s.shards << "\n";
  os << "placement " << s.placement.to_string() << "\n";
  os << "crash_steps";
  for (std::uint64_t k : s.crash_steps) os << " " << k;
  os << "\n";
  for (const auto& [id, shard] : s.migrations) {
    os << "migrate " << id << " " << shard << "\n";
  }
  const std::uint32_t default_target =
      s.objects.empty() ? 0 : s.objects.front().id;
  for (const auto& [pid, ops] : s.scripts) {
    os << "script " << pid;
    for (const hist::op_desc& d : ops) {
      os << " " << hist::opcode_name(d.code) << ":" << d.a << ":" << d.b;
      // Ops on the first declared object stay in the compact v1/v2 token
      // form; only cross-object targets carry the @id suffix.
      if (d.object != default_target) os << "@" << d.object;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

/// Parse failure at a known input line: the message carries the 1-based line
/// number and the offending token, so a bad dump pinpoints itself.
[[noreturn]] void malformed_at(int lineno, const std::string& what) {
  throw std::invalid_argument("parse_scenario: line " +
                              std::to_string(lineno) + ": " + what);
}

/// The numeric fields of a line after its key: every remaining token must be
/// a plain decimal (digits only, no sign) no larger than `max`, and there
/// must be exactly `count` of them (any number when `count` is negative). A
/// trailing token, a negative or an out-of-range value is a parse error
/// naming the line.
std::vector<std::uint64_t> numeric_fields(
    std::istringstream& ls, int lineno, const std::string& line, int count,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::vector<std::uint64_t> out;
  std::string tok;
  while (ls >> tok) {
    errno = 0;
    const std::uint64_t v = std::strtoull(tok.c_str(), nullptr, 10);
    if (tok.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE || v > max) {
      malformed_at(lineno, "bad number '" + tok + "' in: " + line);
    }
    out.push_back(v);
  }
  if (count >= 0 && out.size() != static_cast<std::size_t>(count)) {
    malformed_at(lineno, "want " + std::to_string(count) +
                             " number(s) in: " + line);
  }
  return out;
}

constexpr std::uint64_t k_int_max = std::numeric_limits<int>::max();

struct parse_state {
  bool legacy = false;    // saw v1/v2 `kind` / `params` keys
  bool declared = false;  // saw v3 `object` lines
};

/// The implicit id-0 object v1/v2 `kind`/`params` keys operate on.
scenario_object& legacy_object(scripted_scenario& s, parse_state& st,
                               int lineno) {
  if (st.declared) {
    malformed_at(lineno,
                 "legacy kind/params key mixed with v3 object declarations");
  }
  st.legacy = true;
  if (s.objects.empty()) s.objects.push_back({0, "", {}});
  return s.objects.front();
}

void parse_line(const std::string& line, int lineno, scripted_scenario& s,
                parse_state& st) {
  std::istringstream ls(line);
  std::string key;
  ls >> key;
  if (key == "object") {
    if (st.legacy) {
      malformed_at(lineno,
                   "v3 object declaration mixed with legacy kind/params keys");
    }
    st.declared = true;
    scenario_object o;
    if (!(ls >> o.id >> o.kind >> o.params.init >> o.params.capacity)) {
      malformed_at(lineno, "bad object line: " + line);
    }
    if (s.find_object(o.id) != nullptr) {
      malformed_at(lineno, "duplicate object id " + std::to_string(o.id));
    }
    s.objects.push_back(std::move(o));
  } else if (key == "kind") {
    if (!(ls >> legacy_object(s, st, lineno).kind)) {
      malformed_at(lineno, "missing kind value");
    }
  } else if (key == "params") {
    object_params& p = legacy_object(s, st, lineno).params;
    if (!(ls >> p.init >> p.capacity)) {
      malformed_at(lineno, "bad params line: " + line);
    }
  } else if (key == "procs") {
    s.nprocs =
        static_cast<int>(numeric_fields(ls, lineno, line, 1, k_int_max)[0]);
    if (s.nprocs == 0) malformed_at(lineno, "bad procs line: " + line);
  } else if (key == "policy") {
    std::string p;
    if (!(ls >> p)) malformed_at(lineno, "missing policy value");
    s.policy = fail_policy_from_name(p);
  } else if (key == "shared_cache") {
    s.shared_cache = numeric_fields(ls, lineno, line, 1, 1)[0] != 0;
  } else if (key == "sched_seed") {
    s.sched_seed = numeric_fields(ls, lineno, line, 1)[0];
  } else if (key == "sched") {
    // Absent in v4 and earlier dumps: those always ran the seeded random
    // scheduler, which is why the field's default is uniform_random.
    std::string rest;
    std::getline(ls, rest);
    s.sched = sched::sched_policy::parse(rest);
  } else if (key == "persist") {
    std::string p;
    if (!(ls >> p)) malformed_at(lineno, "missing persist value");
    if (!nvm::persist_from_name(p, s.persist)) {
      malformed_at(lineno, "unknown persist model '" + p + "'");
    }
  } else if (key == "visibility") {
    // Absent in v5 and earlier dumps: those always ran sequentially
    // consistent, which is why the field's default is sc.
    std::string v;
    if (!(ls >> v)) malformed_at(lineno, "missing visibility value");
    if (!wmm::visibility_from_name(v, s.visibility)) {
      malformed_at(lineno, "unknown visibility model '" + v + "'");
    }
  } else if (key == "drain_steps") {
    for (std::uint64_t k : numeric_fields(ls, lineno, line, -1)) {
      s.drain_steps.push_back(k);
    }
  } else if (key == "backend") {
    std::string b;
    if (!(ls >> b)) malformed_at(lineno, "missing backend value");
    s.backend = backend_from_name(b);
  } else if (key == "shards") {
    s.shards =
        static_cast<int>(numeric_fields(ls, lineno, line, 1, k_int_max)[0]);
    if (s.shards == 0) malformed_at(lineno, "bad shards line: " + line);
  } else if (key == "placement") {
    std::string rest;
    std::getline(ls, rest);
    s.placement = placement_policy::parse(rest);
  } else if (key == "migrate") {
    const std::vector<std::uint64_t> f = numeric_fields(
        ls, lineno, line, 2, std::numeric_limits<std::uint32_t>::max());
    if (f[1] > k_int_max) malformed_at(lineno, "bad migrate line: " + line);
    const auto id = static_cast<std::uint32_t>(f[0]);
    const int shard = static_cast<int>(f[1]);
    if (s.find_object(id) == nullptr) {
      malformed_at(lineno, "migrate targets undeclared object " +
                               std::to_string(id));
    }
    s.migrations.emplace_back(id, shard);
  } else if (key == "crash_steps") {
    for (std::uint64_t k : numeric_fields(ls, lineno, line, -1)) {
      s.crash_steps.push_back(k);
    }
  } else if (key == "script") {
    int pid = -1;
    if (!(ls >> pid)) malformed_at(lineno, "bad script line: " + line);
    std::vector<hist::op_desc> ops;
    std::string tok;
    while (ls >> tok) {
      // name:a:b[@object] — no @ suffix targets the first declared object,
      // which is why objects must be declared before the scripts that use
      // them (every canonical dump orders them that way).
      std::string body = tok;
      hist::op_desc d;
      std::size_t at = tok.find('@');
      if (at != std::string::npos) {
        body = tok.substr(0, at);
        const std::string id_text = tok.substr(at + 1);
        // Digits only, within uint32 range: "@-1" and "@4294967296" must
        // error here, not wrap into a different (possibly declared) id.
        unsigned long long id = 0;
        try {
          std::size_t used = 0;
          id = std::stoull(id_text, &used);
          if (id_text.empty() || used != id_text.size() ||
              id_text[0] == '-' || id > 0xFFFFFFFFull) {
            throw std::invalid_argument(id_text);
          }
        } catch (const std::exception&) {
          malformed_at(lineno, "bad op target in '" + tok + "'");
        }
        d.object = static_cast<std::uint32_t>(id);
      } else {
        if (s.objects.empty()) {
          malformed_at(lineno, "op '" + tok +
                                   "' before any object declaration");
        }
        d.object = s.objects.front().id;
      }
      if (s.find_object(d.object) == nullptr) {
        malformed_at(lineno, "op '" + tok + "' targets undeclared object " +
                                 std::to_string(d.object));
      }
      std::size_t c1 = body.find(':');
      std::size_t c2 = body.rfind(':');
      if (c1 == std::string::npos || c2 == c1) {
        malformed_at(lineno, "bad op token '" + tok + "'");
      }
      d.code = opcode_from_name(body.substr(0, c1));
      try {
        d.a = std::stoll(body.substr(c1 + 1, c2 - c1 - 1));
        d.b = std::stoll(body.substr(c2 + 1));
      } catch (const std::exception&) {
        malformed_at(lineno, "bad op arguments in '" + tok + "'");
      }
      ops.push_back(d);
    }
    s.scripts[pid] = std::move(ops);
  } else {
    malformed_at(lineno, "unknown key '" + key + "'");
  }
}

}  // namespace

scripted_scenario parse_scenario(const std::string& text) {
  scripted_scenario s;
  parse_state st;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    try {
      parse_line(line, lineno, s, st);
    } catch (const std::invalid_argument& ex) {
      std::string what = ex.what();
      // Helper throws (opcode_from_name, backend_from_name, ...) know the
      // offending token but not the line — wrap them once, here.
      if (what.rfind("parse_scenario:", 0) == 0) throw;
      throw std::invalid_argument("parse_scenario: line " +
                                  std::to_string(lineno) + ": " + what);
    }
  }
  if (s.objects.empty()) {
    throw std::invalid_argument("parse_scenario: missing kind");
  }
  for (const scenario_object& o : s.objects) {
    if (o.kind.empty()) {
      throw std::invalid_argument("parse_scenario: missing kind");
    }
  }
  return s;
}

}  // namespace detect::api
