// object_registry — the opcode-dispatch registry of the detect::api façade.
//
// Maps kind strings ("reg", "cas", "stripped_queue", "attiya_reg", ...) to
// factories producing detectable objects plus the matching sequential spec
// and opcode family. Scenarios, fuzzers, and future sharded or multi-backend
// runtimes instantiate any object in the suite by name; the parameterized
// registry test in tests/api_test.cpp qualifies every kind end-to-end.
//
// Built-in kinds (registered at construction):
//   core       reg cas counter swap tas queue stack max_reg lock nrl_reg
//   baselines  attiya_reg bendavid_cas plain_reg plain_cas plain_counter
//   stripped   stripped_{reg,cas,counter,swap,tas,queue,stack}
//              (Theorem-2 counterexamples: auxiliary state withheld)
// Additional kinds may be added at runtime with `add` — factories only see
// the generic object_env, so externally defined objects plug in the same way.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/handles.hpp"
#include "core/announce.hpp"
#include "history/specs.hpp"
#include "nvm/pmem.hpp"

namespace detect::api {

/// Construction-time knobs shared by every kind; kinds ignore what they do
/// not need (e.g. `capacity` only matters to the pooled queue/stack).
struct object_params {
  hist::value_t init = 0;
  std::size_t capacity = 64;

  bool operator==(const object_params&) const = default;
};

/// What a factory gets to build from — deliberately world-free so the same
/// registry serves the simulated harness and the free-running arena.
struct object_env {
  int nprocs;
  core::announcement_board& board;
  nvm::pmem_domain& domain;
};

/// A factory's product. Wrapper kinds (stripped_*, nrl_reg) put the inner
/// object first and the wrapper last; `primary()` is what gets registered
/// with the runtime, the rest just needs to stay alive as long as it does.
struct created_object {
  std::vector<std::unique_ptr<core::detectable_object>> owned;

  core::detectable_object& primary() const { return *owned.back(); }
};

struct kind_info {
  std::string name;
  op_family family = op_family::reg;
  /// True for kinds that honor the detectability contract under crashes.
  /// False for the plain_* baselines (recovery always fails) and the
  /// stripped_* counterexamples (Theorem 2: verdicts can be wrong) — crash
  /// batteries must skip these; crash-free checking is still valid.
  bool detectable = true;
  std::function<created_object(const object_env&, const object_params&)> make;
  std::function<std::unique_ptr<hist::spec>(const object_params&)> make_spec;
};

class object_registry {
 public:
  /// The process-wide registry preloaded with every built-in kind.
  static object_registry& global();

  /// Register a new kind. Throws std::invalid_argument on a duplicate name.
  void add(kind_info info);

  bool contains(const std::string& kind) const;
  const kind_info& at(const std::string& kind) const;
  /// All kind names, sorted.
  std::vector<std::string> kinds() const;

  created_object create(const std::string& kind, const object_env& env,
                        const object_params& params = {}) const;
  std::unique_ptr<hist::spec> make_spec(const std::string& kind,
                                        const object_params& params = {}) const;

  object_registry();  // starts with the built-in kinds

 private:
  std::map<std::string, kind_info> kinds_;
};

/// A short single-process script exercising an opcode family — the smoke
/// workload the registry qualification test runs against every kind.
std::vector<hist::op_desc> smoke_script(op_family family, std::uint32_t object_id,
                                        int pid);

/// The typed adders of the built-in core kinds, written once over
/// `Derived::add(kind, params)`: harness, executor and serve::server derive
/// from this with themselves as `Derived`.
template <typename Derived>
class typed_adders {
 public:
  reg add_reg(value_t init = 0) { return reg(add("reg", {.init = init})); }
  cas add_cas(value_t init = 0) { return cas(add("cas", {.init = init})); }
  counter add_counter(value_t init = 0) {
    return counter(add("counter", {.init = init}));
  }
  swap_reg add_swap(value_t init = 0) {
    return swap_reg(add("swap", {.init = init}));
  }
  tas add_tas() { return tas(add("tas")); }
  queue add_queue(std::size_t capacity = 64) {
    return queue(add("queue", {.capacity = capacity}));
  }
  stack add_stack(std::size_t capacity = 64) {
    return stack(add("stack", {.capacity = capacity}));
  }
  max_reg add_max_reg() { return max_reg(add("max_reg")); }
  lock add_lock() { return lock(add("lock")); }

 private:
  object_handle add(const std::string& kind, const object_params& params = {}) {
    return static_cast<Derived&>(*this).add(kind, params);
  }
};

}  // namespace detect::api
