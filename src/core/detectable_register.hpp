// Algorithm 1 — bounded-space detectable read/write register.
//
// O's state is one shared register R holding a triplet ⟨v, q, b⟩: the current
// value, the id of the process that last wrote it, and the index of the
// toggle-bit array q used for that write. Each process owns two size-N
// toggle-bit arrays A[·][p][0], A[·][p][1], used by its writes alternately.
//
// The toggle bits replace the unbounded sequence numbers of Attiya et al.:
// before writing, p clears its bit in the previous writer q's *other*
// toggle array; q can only reuse the same toggle index after completing an
// intervening write with the other index, whose closing for-loop sets all of
// its bits of that other array — so on recovery, p's cleared bit being set
// again witnesses that a write was linearized in between (the key observation
// of Lemma 1). Space: R carries O(log N) bits beside the value; the arrays
// are 2N² bits. Both bounded.
//
// Line numbers in comments refer to the paper's pseudo-code.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/object.hpp"
#include "nvm/pcell.hpp"
#include "nvm/pvar.hpp"

namespace detect::core {

/// ⟨value, writer pid, toggle index⟩ packed into one 64-bit word: 48-bit
/// signed value, 15-bit pid, 1-bit toggle.
struct reg_word {
  static constexpr int value_bits = 48;
  static constexpr std::int64_t value_min = -(std::int64_t{1} << (value_bits - 1));
  static constexpr std::int64_t value_max = (std::int64_t{1} << (value_bits - 1)) - 1;

  static std::uint64_t pack(value_t v, int pid, int toggle) {
    if (v < value_min || v > value_max) {
      throw std::out_of_range("detectable_register: value exceeds 48 bits");
    }
    auto uv = static_cast<std::uint64_t>(v) & ((std::uint64_t{1} << value_bits) - 1);
    return uv | (static_cast<std::uint64_t>(pid) << value_bits) |
           (static_cast<std::uint64_t>(toggle) << 63);
  }
  static value_t value_of(std::uint64_t w) {
    auto uv = w & ((std::uint64_t{1} << value_bits) - 1);
    // sign-extend from 48 bits
    if (uv & (std::uint64_t{1} << (value_bits - 1))) {
      uv |= ~((std::uint64_t{1} << value_bits) - 1);
    }
    return static_cast<value_t>(uv);
  }
  static int pid_of(std::uint64_t w) {
    return static_cast<int>((w >> value_bits) & 0x7fff);
  }
  static int toggle_of(std::uint64_t w) { return static_cast<int>(w >> 63); }
};

class detectable_register final : public detectable_object {
 public:
  detectable_register(int nprocs, announcement_board& board, value_t init,
                      nvm::pmem_domain& dom)
      : n_(nprocs),
        board_(&board),
        // R initially ⟨v_init, 0, 0⟩ — the initial value is attributed to a
        // write by process 0 that used toggle-bit array 0, so T_0 starts at
        // 1, as that write's line 11 would have left it. Starting T_0 at 0
        // lets p0's first write of v_init reproduce R's initial word: a
        // write that overwrote a completed one would then pass line 20's
        // "R unchanged" test and recover as FAIL.
        r_(reg_word::pack(init, 0, 0), dom) {
    a_.reserve(static_cast<std::size_t>(n_) * n_ * 2);
    for (int i = 0; i < n_ * n_ * 2; ++i) {
      a_.push_back(std::make_unique<nvm::pcell<std::uint8_t>>(0, dom));
    }
    rd_.reserve(static_cast<std::size_t>(n_));
    t_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      rd_.push_back(std::make_unique<nvm::pvar<rd_data>>(rd_data{}, dom));
      t_.push_back(
          std::make_unique<nvm::pvar<std::uint8_t>>(p == 0 ? 1 : 0, dom));
    }
  }

  value_t invoke(int pid, const hist::op_desc& op) override {
    switch (op.code) {
      case hist::opcode::reg_write:
        return write(pid, op.a);
      case hist::opcode::reg_read:
        return read(pid);
      default:
        throw std::invalid_argument("detectable_register: bad opcode");
    }
  }

  recovery_result recover(int pid, const hist::op_desc& op) override {
    switch (op.code) {
      case hist::opcode::reg_write:
        return write_recover(pid, op.a);
      case hist::opcode::reg_read:
        return read_recover(pid);
      default:
        throw std::invalid_argument("detectable_register: bad opcode");
    }
  }

  int nprocs() const noexcept { return n_; }

  /// Shared-memory footprint in bits (beyond nothing: includes the value
  /// field). Used by experiment E1.
  std::size_t shared_bits() const noexcept {
    return 64 + static_cast<std::size_t>(n_) * n_ * 2;
  }

 private:
  struct rd_data {
    std::uint8_t mtoggle = 0;
    std::uint64_t qword = 0;  // ⟨qval, q, qtoggle⟩ as read in line 1
  };

  nvm::pcell<std::uint8_t>& a(int i, int j, int t) {
    return *a_[(static_cast<std::size_t>(i) * n_ + j) * 2 + t];
  }

  value_t write(int p, value_t val) {
    ann_fields& ann = board_->of(p);
    std::uint64_t qword = r_.load();             // line 1
    int q = reg_word::pid_of(qword);
    int qtoggle = reg_word::toggle_of(qword);
    a(p, q, 1 - qtoggle).store(0);               // line 2
    std::uint8_t mtoggle = t_[p]->load();        // line 3
    rd_[p]->store({mtoggle, qword});             // line 4
    if (r_.load() == qword) {                    // line 5 (inverted)
      ann.cp.store(1);                           // line 6
      r_.store(reg_word::pack(val, p, mtoggle)); // line 7
    }
    ann.cp.store(2);                             // line 8
    for (int i = 0; i < n_; ++i) {               // lines 9-10
      a(i, p, mtoggle).store(1);
    }
    t_[p]->store(static_cast<std::uint8_t>(1 - mtoggle));  // line 11
    ann.resp.store(hist::k_ack);                 // line 12
    return hist::k_ack;                          // line 13
  }

  recovery_result write_recover(int p, value_t /*val*/) {
    ann_fields& ann = board_->of(p);
    rd_data rd = rd_[p]->load();                 // line 14
    if (ann.resp.load() != hist::k_bottom) {     // lines 15-16
      return recovery_result::linearized(hist::k_ack);
    }
    if (ann.cp.load() == 0) {                    // lines 17-18
      return recovery_result::failed();
    }
    if (ann.cp.load() == 1) {                    // line 19
      int q = reg_word::pid_of(rd.qword);
      int qtoggle = reg_word::toggle_of(rd.qword);
      if (r_.load() == rd.qword &&               // line 20
          a(p, q, 1 - qtoggle).load() == 0) {
        return recovery_result::failed();        // line 21
      }
    }
    ann.cp.store(2);                             // line 22
    for (int i = 0; i < n_; ++i) {               // lines 23-24
      a(i, p, rd.mtoggle).store(1);
    }
    t_[p]->store(static_cast<std::uint8_t>(1 - rd.mtoggle));  // line 25
    ann.resp.store(hist::k_ack);                 // line 26
    return recovery_result::linearized(hist::k_ack);          // line 27
  }

  value_t read(int p) {
    ann_fields& ann = board_->of(p);
    value_t v = reg_word::value_of(r_.load());
    ann.resp.store(v);
    return v;
  }

  recovery_result read_recover(int p) {
    ann_fields& ann = board_->of(p);
    value_t v = ann.resp.load();
    if (v != hist::k_bottom) return recovery_result::linearized(v);
    // Re-invoke Read (§3: "its recovery function re-invokes Read if
    // Ann_p.resp = ⊥ holds").
    return recovery_result::linearized(read(p));
  }

  int n_;
  announcement_board* board_;
  nvm::pcell<std::uint64_t> r_;
  std::vector<std::unique_ptr<nvm::pcell<std::uint8_t>>> a_;  // A[N][N][2]
  std::vector<std::unique_ptr<nvm::pvar<rd_data>>> rd_;
  std::vector<std::unique_ptr<nvm::pvar<std::uint8_t>>> t_;
};

}  // namespace detect::core
