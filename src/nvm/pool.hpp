// pmem_pool<Node> — a fixed-capacity persistent object pool used by the
// durable queue for node allocation.
//
// Allocation is a persistent bump pointer: the allocation frontier itself
// lives in a pcell, so a crash can at worst leak slots that were claimed but
// never published (a fresh bump after recovery simply skips them). This
// mirrors what log-free durable data structures do in practice — leaked
// nodes are reclaimed by an offline scan, which bounded test runs never need.
// Nodes are addressed by 32-bit indices rather than raw pointers so they pack
// into CAS-able words; index `null_ref` plays the role of nullptr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>

#include "nvm/pcell.hpp"

namespace detect::nvm {

inline constexpr std::uint32_t null_ref = 0xffffffffu;

template <typename Node>
class pmem_pool {
 public:
  /// Builds all `capacity` nodes in one allocation, in index order after the
  /// frontier, so the cells attach in the order a cell group records them.
  explicit pmem_pool(std::size_t capacity,
                     pmem_domain& dom = pmem_domain::global())
      : dom_(&dom),
        frontier_(0, dom),
        slots_(std::make_unique_for_overwrite<slot[]>(capacity)) {
    try {
      for (; built_ < capacity; ++built_) {
        ::new (static_cast<void*>(slots_[built_].raw)) Node(dom);
      }
    } catch (...) {
      destroy_nodes();
      throw;
    }
  }
  ~pmem_pool() { destroy_nodes(); }
  pmem_pool(const pmem_pool&) = delete;
  pmem_pool& operator=(const pmem_pool&) = delete;

  /// Claim a fresh node; returns its index. The bump itself is one shared
  /// step (the frontier is a shared cell: any process may allocate).
  std::uint32_t allocate() {
    std::uint32_t idx = frontier_.load();
    for (;;) {
      if (idx >= built_) throw std::runtime_error("pmem_pool exhausted");
      if (frontier_.compare_exchange(idx, idx + 1)) return idx;
    }
  }

  Node& at(std::uint32_t idx) { return *checked(idx); }
  const Node& at(std::uint32_t idx) const { return *checked(idx); }

  std::size_t capacity() const noexcept { return built_; }
  std::uint32_t allocated() const noexcept { return frontier_.peek(); }

 private:
  /// Storage for one node, constructed in place.
  struct slot {
    alignas(Node) unsigned char raw[sizeof(Node)];
  };

  Node* node(std::size_t idx) const noexcept {
    return std::launder(reinterpret_cast<Node*>(slots_[idx].raw));
  }
  Node* checked(std::uint32_t idx) const {
    if (idx >= built_) throw std::out_of_range("pmem_pool: no such node");
    return node(idx);
  }
  void destroy_nodes() noexcept {
    for (std::size_t i = 0; i < built_; ++i) node(i)->~Node();
  }

  pmem_domain* dom_;
  pcell<std::uint32_t> frontier_;
  std::unique_ptr<slot[]> slots_;
  /// Nodes constructed in slots_ (all of them once the constructor returns).
  std::size_t built_ = 0;
};

}  // namespace detect::nvm
