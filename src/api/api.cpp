// Implementation of the detect::api façade: the built-in kind registry and
// the harness wiring.
#include "api/api.hpp"

#include <algorithm>
#include <tuple>

#include "baselines/attiya_register.hpp"
#include "baselines/bendavid_cas.hpp"
#include "baselines/plain.hpp"
#include "baselines/stripped.hpp"
#include "core/detectable_cas.hpp"
#include "core/detectable_register.hpp"
#include "core/max_register.hpp"
#include "core/nrl.hpp"
#include "core/queue.hpp"
#include "core/rlock.hpp"
#include "core/rmw.hpp"
#include "core/stack.hpp"

namespace detect::api {

namespace {

template <typename Obj, typename... Args>
created_object one(Args&&... args) {
  created_object c;
  c.owned.push_back(std::make_unique<Obj>(std::forward<Args>(args)...));
  return c;
}

std::unique_ptr<hist::spec> reg_spec(const object_params& p) {
  return std::make_unique<hist::register_spec>(p.init);
}

/// Wrap the primary of `inner` in base::stripped (auxiliary state withheld —
/// the Theorem-2 counterexample regime). The inner object rides along in the
/// ownership vector.
created_object strip(created_object inner) {
  inner.owned.push_back(std::make_unique<base::stripped>(inner.primary()));
  return inner;
}

}  // namespace

object_registry::object_registry() {
  auto make_reg = [](const object_env& e, const object_params& p) {
    return one<core::detectable_register>(e.nprocs, e.board, p.init, e.domain);
  };
  auto make_cas = [](const object_env& e, const object_params& p) {
    return one<core::detectable_cas>(e.nprocs, e.board, p.init, e.domain);
  };
  auto make_counter = [](const object_env& e, const object_params& p) {
    return one<core::detectable_counter>(e.nprocs, e.board, p.init, e.domain);
  };
  auto make_swap = [](const object_env& e, const object_params& p) {
    return one<core::detectable_swap>(e.nprocs, e.board, p.init, e.domain);
  };
  auto make_tas = [](const object_env& e, const object_params&) {
    return one<core::detectable_tas>(e.nprocs, e.board, e.domain);
  };
  auto make_queue = [](const object_env& e, const object_params& p) {
    return one<core::detectable_queue>(e.nprocs, e.board, p.capacity, e.domain);
  };
  auto make_stack = [](const object_env& e, const object_params& p) {
    return one<core::detectable_stack>(e.nprocs, e.board, p.capacity, e.domain);
  };

  // ---- core algorithms -----------------------------------------------------
  add({"reg", op_family::reg, true, make_reg, reg_spec});
  add({"cas", op_family::cas, true, make_cas, [](const object_params& p) {
         return std::make_unique<hist::cas_spec>(p.init);
       }});
  add({"counter", op_family::counter, true, make_counter,
       [](const object_params& p) {
         return std::make_unique<hist::counter_spec>(p.init);
       }});
  add({"swap", op_family::swap, true, make_swap, reg_spec});
  add({"tas", op_family::tas, true, make_tas, [](const object_params&) {
         return std::make_unique<hist::tas_spec>();
       }});
  add({"queue", op_family::queue, true, make_queue, [](const object_params&) {
         return std::make_unique<hist::queue_spec>();
       }});
  add({"stack", op_family::stack, true, make_stack, [](const object_params&) {
         return std::make_unique<hist::stack_spec>();
       }});
  add({"max_reg", op_family::max_reg, true,
       [](const object_env& e, const object_params&) {
         return one<core::max_register>(e.nprocs, e.board, e.domain);
       },
       [](const object_params&) {
         return std::make_unique<hist::max_register_spec>(0);
       }});
  add({"lock", op_family::lock, true,
       [](const object_env& e, const object_params&) {
         return one<core::recoverable_lock>(e.nprocs, e.board, e.domain);
       },
       [](const object_params&) { return std::make_unique<hist::lock_spec>(); }});
  add({"nrl_reg", op_family::reg, true,
       [make_reg](const object_env& e, const object_params& p) {
         created_object c = make_reg(e, p);
         c.owned.push_back(
             std::make_unique<core::nrl_adapter>(c.primary(), e.board));
         return c;
       },
       reg_spec});

  // ---- unbounded-identifier baselines --------------------------------------
  add({"attiya_reg", op_family::reg, true,
       [](const object_env& e, const object_params& p) {
         return one<base::attiya_register>(e.nprocs, e.board, p.init, e.domain);
       },
       reg_spec});
  add({"bendavid_cas", op_family::cas, true,
       [](const object_env& e, const object_params& p) {
         return one<base::bendavid_cas>(e.nprocs, e.board, p.init, e.domain);
       },
       [](const object_params& p) {
         return std::make_unique<hist::cas_spec>(p.init);
       }});

  // ---- non-detectable baselines --------------------------------------------
  add({"plain_reg", op_family::reg, false,
       [](const object_env& e, const object_params& p) {
         return one<base::plain_register>(p.init, e.domain);
       },
       reg_spec});
  add({"plain_cas", op_family::cas, false,
       [](const object_env& e, const object_params& p) {
         return one<base::plain_cas>(p.init, e.domain);
       },
       [](const object_params& p) {
         return std::make_unique<hist::cas_spec>(p.init);
       }});
  add({"plain_counter", op_family::counter, false,
       [](const object_env& e, const object_params& p) {
         return one<base::plain_counter>(p.init, e.domain);
       },
       [](const object_params& p) {
         return std::make_unique<hist::counter_spec>(p.init);
       }});

  // ---- stripped Theorem-2 counterexamples ----------------------------------
  const char* stripped_of[][2] = {
      {"stripped_reg", "reg"},         {"stripped_cas", "cas"},
      {"stripped_counter", "counter"}, {"stripped_swap", "swap"},
      {"stripped_tas", "tas"},         {"stripped_queue", "queue"},
      {"stripped_stack", "stack"},
  };
  for (const auto& [name, inner] : stripped_of) {
    const kind_info& base_kind = at(inner);
    add({name, base_kind.family, false,
         [make_inner = base_kind.make](const object_env& e,
                                       const object_params& p) {
           return strip(make_inner(e, p));
         },
         base_kind.make_spec});
  }
}

object_registry& object_registry::global() {
  static object_registry r;
  return r;
}

void object_registry::add(kind_info info) {
  auto [it, inserted] = kinds_.emplace(info.name, std::move(info));
  if (!inserted) {
    throw std::invalid_argument("object_registry: duplicate kind '" +
                                it->first + "'");
  }
}

bool object_registry::contains(const std::string& kind) const {
  return kinds_.count(kind) != 0;
}

const kind_info& object_registry::at(const std::string& kind) const {
  auto it = kinds_.find(kind);
  if (it == kinds_.end()) {
    throw std::invalid_argument("object_registry: unknown kind '" + kind + "'");
  }
  return it->second;
}

std::vector<std::string> object_registry::kinds() const {
  std::vector<std::string> names;
  names.reserve(kinds_.size());
  for (const auto& [name, info] : kinds_) names.push_back(name);
  return names;  // std::map iterates sorted
}

created_object object_registry::create(const std::string& kind,
                                       const object_env& env,
                                       const object_params& params) const {
  return at(kind).make(env, params);
}

std::unique_ptr<hist::spec> object_registry::make_spec(
    const std::string& kind, const object_params& params) const {
  return at(kind).make_spec(params);
}

std::vector<hist::op_desc> smoke_script(op_family family,
                                        std::uint32_t object_id, int pid) {
  auto op = [object_id](hist::opcode c, value_t a = 0,
                        value_t b = 0) -> hist::op_desc {
    return {object_id, c, a, b, 0};
  };
  using hist::opcode;
  switch (family) {
    case op_family::reg:
      return {op(opcode::reg_write, 5), op(opcode::reg_read),
              op(opcode::reg_write, 7), op(opcode::reg_read)};
    case op_family::swap:
      return {op(opcode::swap, 5), op(opcode::swap, 9), op(opcode::reg_read)};
    case op_family::cas:
      return {op(opcode::cas, 0, 1), op(opcode::cas, 0, 2),
              op(opcode::cas, 1, 2), op(opcode::cas_read)};
    case op_family::counter:
      return {op(opcode::ctr_add, 1), op(opcode::ctr_add, 2),
              op(opcode::ctr_read)};
    case op_family::tas:
      return {op(opcode::tas_set), op(opcode::tas_set), op(opcode::tas_reset),
              op(opcode::tas_set)};
    case op_family::queue:
      return {op(opcode::enq, 1), op(opcode::enq, 2), op(opcode::deq),
              op(opcode::deq), op(opcode::deq)};
    case op_family::stack:
      return {op(opcode::push, 1), op(opcode::push, 2), op(opcode::pop),
              op(opcode::pop), op(opcode::pop)};
    case op_family::max_reg:
      return {op(opcode::max_write, 5), op(opcode::max_read),
              op(opcode::max_write, 3), op(opcode::max_read)};
    case op_family::lock:
      return {op(opcode::lock_try, pid), op(opcode::lock_release, pid),
              op(opcode::lock_release, pid), op(opcode::lock_try, pid)};
  }
  throw std::logic_error("smoke_script: unhandled family");
}

// ---------------------------------------------------------------------------
// harness

harness::harness(run_policy policy) : pol_(std::move(policy)) {
  // The one place a run policy becomes a world: a second crash plan would
  // never run, so refuse it rather than drop it.
  if (!pol_.crash_steps.empty() && pol_.crash_random) {
    throw std::invalid_argument(
        "harness: crash_at and crash_random are exclusive crash plans — set "
        "one");
  }
  world_ = std::make_unique<sim::world>(pol_.nprocs, pol_.wcfg);
  if (pol_.shared_cache) {
    world_->domain().set_model(nvm::cache_model::shared_cache);
    world_->domain().set_auto_persist(pol_.auto_persist);
  }
  world_->domain().set_persist_model(pol_.persist);
  board_ = std::make_unique<core::announcement_board>(pol_.nprocs,
                                                      world_->domain());
  log_ = std::make_unique<hist::log>();
  rt_ = std::make_unique<core::runtime>(*world_, *log_, *board_);
  rt_->set_fail_policy(pol_.fail);
}

object_handle harness::add(const std::string& kind,
                           const object_params& params) {
  return add_as(next_id_, kind, params);
}

object_handle harness::add_as(std::uint32_t id, const std::string& kind,
                              const object_params& params) {
  const kind_info& info = object_registry::global().at(kind);
  object_env env{nprocs(), *board_, domain()};
  hosted_object hosted{kind, params, {}, {}};
  created_object created = [&] {
    // Record which cells construction attaches: that cell group, in attach
    // order, is the object's migratable NVM representation.
    nvm::attach_recording rec(domain(), hosted.cells);
    return info.make(env, params);
  }();
  core::detectable_object& primary = created.primary();
  hosted.owned = std::move(created.owned);
  rt_->register_object(id, primary);
  hosted_.emplace(id, std::move(hosted));
  next_id_ = std::max(next_id_, id + 1);
  specs_.emplace_back(id, info.make_spec(params));
  return object_handle(id, info.family, &primary, kind);
}

std::string harness::migration_blocker(std::uint32_t id) {
  if (hosted_.count(id) == 0) {
    return "harness: object " + std::to_string(id) +
           " is not a migratable object of this world";
  }
  // A valid announcement naming this object with an unfinished operation
  // means a crash struck mid-op and recovery has not run yet; migrating now
  // would strand that recovery (the source runtime no longer knows the id).
  for (int p = 0; p < nprocs(); ++p) {
    const core::ann_fields& ann = board_->of(p);
    const hist::op_desc desc = ann.op.peek();
    if (ann.valid.peek() != 0 && desc.object == id &&
        desc.client_seq > ann.done_seq.peek()) {
      return "harness: object " + std::to_string(id) +
             " has an announced, unrecovered operation of process " +
             std::to_string(p) + "; run recovery to completion before migrating";
    }
  }
  return {};
}

nvm::pmem_image harness::extract_object(std::uint32_t id) {
  const std::string blocker = migration_blocker(id);
  if (!blocker.empty()) throw std::invalid_argument(blocker);
  auto it = hosted_.find(id);
  nvm::pmem_image image = nvm::save_image(it->second.cells);
  rt_->unregister_object(id);
  std::erase_if(specs_, [id](const auto& s) { return s.first == id; });
  hosted_.erase(it);  // destroys the object; its cells detach from the domain
  return image;
}

object_handle harness::adopt_object(std::uint32_t id, const std::string& kind,
                                    const object_params& params,
                                    const nvm::pmem_image& image) {
  object_handle handle = add_as(id, kind, params);
  try {
    nvm::load_image(hosted_.at(id).cells, image);
  } catch (const std::invalid_argument& e) {
    // Unwind the half-adoption so the harness stays consistent.
    rt_->unregister_object(id);
    std::erase_if(specs_, [id](const auto& s) { return s.first == id; });
    hosted_.erase(id);
    throw std::invalid_argument("harness: cannot adopt object " +
                                std::to_string(id) + " as '" + kind +
                                "': " + e.what());
  }
  return handle;
}

object_handle harness::add_object(std::unique_ptr<core::detectable_object> obj,
                                  std::unique_ptr<hist::spec> spec,
                                  op_family family, std::string kind) {
  core::detectable_object& primary = *obj;
  objects_.push_back(std::move(obj));
  std::uint32_t id = rt_->register_object(next_id_++, primary);
  specs_.emplace_back(id, std::move(spec));
  return object_handle(id, family, &primary, std::move(kind));
}

sim::run_report harness::run() {
  prepare_run();

  std::unique_ptr<sim::scheduler> sched =
      sched::make_scheduler(pol_.sched, pol_.sched_seed);
  std::unique_ptr<sim::crash_plan> crashes;
  if (!pol_.crash_steps.empty()) {
    crashes = std::make_unique<sim::crash_at_steps>(pol_.crash_steps);
  } else if (pol_.crash_random) {
    auto [seed, rate, max] = *pol_.crash_random;
    crashes = std::make_unique<sim::random_crashes>(seed, rate, max);
  }
  return rt_->run(*sched, crashes.get());
}

void harness::reseed_crashes(std::uint64_t seed) {
  if (pol_.crash_random) std::get<0>(*pol_.crash_random) = seed;
}

std::unique_ptr<hist::spec> harness::spec() const {
  auto m = std::make_unique<hist::multi_spec>();
  for (const auto& [id, proto] : specs_) m->add_object(id, proto->clone());
  return m;
}

void harness::submit_op(int pid, hist::op_desc desc, std::uint64_t client_seq) {
  desc.client_seq = client_seq;
  world_->submit(pid, [rt = rt_.get(), pid, desc] {
    rt->announce_and_invoke(pid, desc);
  });
}

void harness::crash_now() {
  world_->crash();
  hist::event e;
  e.kind = hist::event_kind::crash;
  log_->append(e);
}

void harness::drive(int pid) {
  for (;;) {
    std::vector<int> ready = world_->runnable();
    if (std::find(ready.begin(), ready.end(), pid) == ready.end()) return;
    world_->step(pid);
  }
}

void harness::drive_all() {
  for (;;) {
    std::vector<int> ready = world_->runnable();
    if (ready.empty()) return;
    world_->step(ready.front());
  }
}

}  // namespace detect::api
