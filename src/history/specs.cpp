#include "history/specs.hpp"

#include <algorithm>
#include <stdexcept>

namespace detect::hist {

namespace {
[[noreturn]] void bad_op(const char* spec_name, const op_desc& op) {
  throw std::invalid_argument(std::string(spec_name) +
                              ": unsupported operation " + op.to_string());
}
}  // namespace

value_t register_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::reg_read:
      return value_;
    case opcode::reg_write:
      value_ = op.a;
      return k_ack;
    case opcode::swap: {
      value_t old = value_;
      value_ = op.a;
      return old;
    }
    default:
      bad_op("register", op);
  }
}

value_t lock_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::lock_try:
      if (owner_ == -1) {
        owner_ = op.a;
        return k_true;
      }
      return k_false;
    case opcode::lock_release:
      if (owner_ == op.a) {
        owner_ = -1;
        return k_true;
      }
      return k_false;
    default:
      bad_op("lock", op);
  }
}

value_t cas_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::cas_read:
      return value_;
    case opcode::cas:
      if (value_ == op.a) {
        value_ = op.b;
        return k_true;
      }
      return k_false;
    default:
      bad_op("cas", op);
  }
}

value_t counter_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::ctr_read:
      return value_;
    case opcode::ctr_add: {
      value_t old = value_;
      value_ += op.a;
      if (cap_ >= 0) value_ = std::min(value_, cap_);
      return old;
    }
    default:
      bad_op("counter", op);
  }
}

value_t tas_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::tas_set: {
      value_t old = bit_;
      bit_ = 1;
      return old;
    }
    case opcode::tas_reset:
      bit_ = 0;
      return k_ack;
    default:
      bad_op("tas", op);
  }
}

value_t queue_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::enq:
      items_.push_back(op.a);
      return k_ack;
    case opcode::deq: {
      if (items_.empty()) return k_empty;
      value_t v = items_.front();
      items_.pop_front();
      return v;
    }
    default:
      bad_op("queue", op);
  }
}

value_t stack_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::push:
      items_.push_back(op.a);
      return k_ack;
    case opcode::pop: {
      if (items_.empty()) return k_empty;
      value_t v = items_.back();
      items_.pop_back();
      return v;
    }
    default:
      bad_op("stack", op);
  }
}

void stack_spec::serialize_to(std::string& out) const {
  out += 's';
  for (value_t v : items_) {
    append_int(out, v);
    out += ',';
  }
}

void queue_spec::serialize_to(std::string& out) const {
  out += 'q';
  for (value_t v : items_) {
    append_int(out, v);
    out += ',';
  }
}

value_t max_register_spec::apply(const op_desc& op) {
  switch (op.code) {
    case opcode::max_read:
      return max_;
    case opcode::max_write:
      max_ = std::max(max_, op.a);
      return k_ack;
    default:
      bad_op("max_register", op);
  }
}

multi_spec::multi_spec(const multi_spec& other) {
  subs_.reserve(other.subs_.size());
  for (const auto& [id, s] : other.subs_) subs_.emplace_back(id, s->clone());
}

void multi_spec::assign_from(const spec& other) {
  assert(typeid(other) == typeid(multi_spec));
  const auto& o = static_cast<const multi_spec&>(other);
  assert(subs_.size() == o.subs_.size());
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    assert(subs_[i].first == o.subs_[i].first);
    subs_[i].second->assign_from(*o.subs_[i].second);
  }
}

void multi_spec::add_object(std::uint32_t id, std::unique_ptr<spec> s) {
  subs_.emplace_back(id, std::move(s));
}

value_t multi_spec::apply(const op_desc& op) {
  for (auto& [id, s] : subs_) {
    if (id == op.object) return s->apply(op);
  }
  throw std::invalid_argument("multi_spec: unknown object id " +
                              std::to_string(op.object));
}

void multi_spec::serialize_to(std::string& out) const {
  for (const auto& [id, s] : subs_) {
    append_int(out, id);
    out += '=';
    s->serialize_to(out);
    out += ';';
  }
}

std::unique_ptr<spec> make_spec_for(opcode family, value_t init) {
  switch (family) {
    case opcode::reg_read:
    case opcode::reg_write:
    case opcode::swap:
      return std::make_unique<register_spec>(init);
    case opcode::lock_try:
    case opcode::lock_release:
      return std::make_unique<lock_spec>();
    case opcode::cas:
    case opcode::cas_read:
      return std::make_unique<cas_spec>(init);
    case opcode::ctr_read:
    case opcode::ctr_add:
      return std::make_unique<counter_spec>(init);
    case opcode::tas_set:
    case opcode::tas_reset:
      return std::make_unique<tas_spec>();
    case opcode::enq:
    case opcode::deq:
      return std::make_unique<queue_spec>();
    case opcode::push:
    case opcode::pop:
      return std::make_unique<stack_spec>();
    case opcode::max_write:
    case opcode::max_read:
      return std::make_unique<max_register_spec>(init);
    default:
      throw std::invalid_argument("make_spec_for: no spec for opcode");
  }
}

const char* opcode_name(opcode c) noexcept {
  switch (c) {
    case opcode::nop: return "nop";
    case opcode::reg_read: return "reg_read";
    case opcode::reg_write: return "reg_write";
    case opcode::swap: return "swap";
    case opcode::lock_try: return "lock_try";
    case opcode::lock_release: return "lock_release";
    case opcode::cas: return "cas";
    case opcode::cas_read: return "cas_read";
    case opcode::ctr_read: return "ctr_read";
    case opcode::ctr_add: return "ctr_add";
    case opcode::tas_set: return "tas_set";
    case opcode::tas_reset: return "tas_reset";
    case opcode::enq: return "enq";
    case opcode::deq: return "deq";
    case opcode::push: return "push";
    case opcode::pop: return "pop";
    case opcode::max_write: return "max_write";
    case opcode::max_read: return "max_read";
  }
  return "?";
}

void op_desc::append_to(std::string& out) const {
  out += opcode_name(code);
  out += '(';
  switch (code) {
    case opcode::reg_write:
    case opcode::swap:
    case opcode::ctr_add:
    case opcode::enq:
    case opcode::push:
    case opcode::max_write:
    case opcode::lock_try:
    case opcode::lock_release:
      append_int(out, a);
      break;
    case opcode::cas:
      append_int(out, a);
      out += ',';
      append_int(out, b);
      break;
    default:
      break;
  }
  out += ")@obj";
  append_int(out, object);
}

std::string op_desc::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void event::append_to(std::string& out) const {
  // Every kind but crash opens with the process and the operation.
  const auto head = [&](const char* tag) {
    out += 'p';
    append_int(out, pid);
    out += tag;
    desc.append_to(out);
  };
  switch (kind) {
    case event_kind::invoke:
      head(" invoke  ");
      out += " seq=";
      append_int(out, desc.client_seq);
      break;
    case event_kind::response:
      head(" resp    ");
      out += " -> ";
      append_int(out, value);
      break;
    case event_kind::crash:
      out += "== CRASH ==";
      break;
    case event_kind::recover_begin:
      head(" recover ");
      break;
    case event_kind::recover_result:
      head(" verdict ");
      out += " -> ";
      if (verdict == recovery_verdict::fail) {
        out += "FAIL";
      } else {
        append_int(out, value);
      }
      break;
  }
}

std::string event::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

std::string format_log(const std::vector<event>& events) {
  std::string out;
  for (const event& e : events) {
    e.append_to(out);
    out += '\n';
  }
  return out;
}

}  // namespace detect::hist
