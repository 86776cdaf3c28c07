#include "sim/strand.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

// ---------------------------------------------------------------------------
// Sanitizer support. Under ASan every stack switch must be bracketed by the
// fiber annotations or the fake-stack machinery corrupts redzones. Under
// TSan each fiber is a TSan fiber and every switch names its target, so TSan
// keeps one shadow call stack per fiber and orders each step after the last.

#if defined(__SANITIZE_ADDRESS__)
#define DETECT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DETECT_ASAN_FIBERS 1
#endif
#endif
#ifndef DETECT_ASAN_FIBERS
#define DETECT_ASAN_FIBERS 0
#endif

#if defined(__SANITIZE_THREAD__)
#define DETECT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DETECT_TSAN_FIBERS 1
#endif
#endif
#ifndef DETECT_TSAN_FIBERS
#define DETECT_TSAN_FIBERS 0
#endif

#if DETECT_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if DETECT_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

// ---------------------------------------------------------------------------
// The context switch. A hand-rolled switch keeps the step cost at a handful
// of register moves; glibc's swapcontext would add an rt_sigprocmask syscall
// per switch (~1 µs a pair), most of the budget this engine exists to
// eliminate. It is written for the SysV x86-64 ABI, the one target.

#if !defined(__x86_64__) || !defined(__ELF__)
#error "detect builds for x86-64 ELF targets only"
#endif

// detect_ctx_switch(void** save_sp /*rdi*/, void* load_sp /*rsi*/): save the
// SysV callee-saved set plus the FP control words on the current stack,
// publish the stack pointer through *save_sp, adopt load_sp, restore, and
// return on the other stack. Fresh fibers are armed with a frame whose
// return address is detect_fiber_entry, which forwards the strand pointer
// (parked in r12) to the C++ trampoline (parked in rbx).
asm(R"(
.text
.globl detect_ctx_switch
.hidden detect_ctx_switch
.type detect_ctx_switch, @function
.align 16
detect_ctx_switch:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr 4(%rsp)
  fnstcw  (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 4(%rsp)
  fldcw   (%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  retq
  .cfi_endproc

.globl detect_fiber_entry
.hidden detect_fiber_entry
.type detect_fiber_entry, @function
.align 16
detect_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
)");

extern "C" void detect_ctx_switch(void** save_sp, void* load_sp);
extern "C" void detect_fiber_entry();

namespace detect::sim {

namespace {

std::atomic<engine_kind> g_default_engine{engine_kind::fiber};

// Object code runs shallow (ops, recovery, logging); the linearizability
// checker's deep recursion runs on the driving thread, never on a fiber.
constexpr std::size_t k_fiber_stack_bytes = 256 * 1024;

// ---------------------------------------------------------------------------
// Per-thread fiber-stack cache. Every world builds one fiber per process and
// a sharded replay one world per shard, so a fuzz campaign would otherwise
// allocate and free a dozen 256 KB stacks per replay, and whether their
// pages fault in afresh each time depends on where the allocator's mmap and
// trim thresholds happen to stand. A finished fiber_strand parks its stack
// here instead and the next one built on the same thread takes it back,
// with its pages still mapped. The cache holds at most k_cached_stacks stacks (enough for the
// fuzzer's largest replay, 3 processes on 4 shards) and frees the rest; a
// thread's cached stacks are freed when the thread exits.

using stack_ptr = std::unique_ptr<unsigned char[]>;

constexpr std::size_t k_cached_stacks = 16;

class stack_cache {
 public:
  stack_cache(const stack_cache&) = delete;
  stack_cache& operator=(const stack_cache&) = delete;

  // A cached stack, or a fresh one. A stack needs no zeroing:
  // value-initialising it would memset the whole 256 KB for every process
  // of every world built.
  static stack_ptr take() {
    stack_cache* cache = mine();
    if (cache == nullptr || cache->count_ == 0) {
      return std::make_unique_for_overwrite<unsigned char[]>(
          k_fiber_stack_bytes);
    }
    stack_ptr stack = std::move(cache->stacks_[--cache->count_]);
#if DETECT_ASAN_FIBERS
    // Frames of the stack's last fiber may have left redzones poisoned.
    __asan_unpoison_memory_region(stack.get(), k_fiber_stack_bytes);
#endif
    return stack;
  }

  // Park `stack` in the calling thread's cache, or free it when the cache
  // is full or already gone.
  static void give(stack_ptr stack) noexcept {
    stack_cache* cache = mine();
    if (cache != nullptr && cache->count_ < k_cached_stacks) {
      cache->stacks_[cache->count_++] = std::move(stack);
    }
  }

 private:
  stack_cache() = default;
  ~stack_cache() { closed() = true; }

  // The calling thread's cache; null once thread exit has destroyed it (a
  // strand torn down later in the exit sequence frees its own stack).
  static stack_cache* mine() noexcept {
    if (closed()) return nullptr;
    thread_local stack_cache cache;
    return &cache;
  }
  // Trivially destructible, so it is still readable after the cache is gone.
  static bool& closed() noexcept {
    thread_local bool flag = false;
    return flag;
  }

  std::array<stack_ptr, k_cached_stacks> stacks_;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// The one switch between stacks.

// Leave the running stack, saving its stack pointer in `from_sp`, for the
// stack saved at `to_sp`: TSan fiber `to_tsan`, spanning [to_bottom,
// to_bottom + to_size). Every switch — driver to fiber, fiber to fiber,
// fiber to driver — goes through here so the sanitizers always learn the
// target. `fake_save` parks the leaving side's ASan fake stack (null: the
// leaving fiber has finished for good, free it); the resumed side restores
// its own with finish_switch.
void switch_stack(void*& from_sp, [[maybe_unused]] void** fake_save,
                  void* to_sp, [[maybe_unused]] void* to_tsan,
                  [[maybe_unused]] const void* to_bottom,
                  [[maybe_unused]] std::size_t to_size) {
#if DETECT_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_save, to_bottom, to_size);
#endif
#if DETECT_TSAN_FIBERS
  __tsan_switch_to_fiber(to_tsan, 0);
#endif
  detect_ctx_switch(&from_sp, to_sp);
}

// The driving thread's side of one strand entry: where every fiber of a
// handoff chain returns to, and the relay the chain consults. Lives on the
// driver's stack until the chain hands control back.
struct driver_side {
  step_relay* relay = nullptr;
  void* sp = nullptr;
  void* tsan = nullptr;  // TSan only: the driving thread's fiber
  // ASan only. The stack bounds are recorded by the chain's first fiber on
  // resumption, afresh for every entry: successive steps of one run may
  // legally be driven from different threads (e.g. a shard worker pool).
  void* fake = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
};

// ---------------------------------------------------------------------------
// fiber_strand

class fiber_strand final : public strand {
 public:
  fiber_strand() : stack_(stack_cache::take()) {
#if DETECT_TSAN_FIBERS
    tsan_ = __tsan_create_fiber(0);
#endif
  }

  ~fiber_strand() override {
    // A task may still be parked mid-run (e.g. the world died at a step
    // limit): unwind it on its own stack before the stack goes back.
    stopping_ = true;
    while (status_ == status::at_yield) {
      crash_me_ = true;
      enter(nullptr);
    }
    stack_cache::give(std::move(stack_));
#if DETECT_TSAN_FIBERS
    __tsan_destroy_fiber(tsan_);
#endif
  }

  void start(std::function<void()> task) override {
    task_ = std::move(task);
    interrupted_ = false;
    arm();
    enter(nullptr);
  }

  void step(step_relay* relay) override { enter(relay); }

  void deliver_crash() override {
    // Loop: a task that swallows `crashed` and touches memory again is hit
    // again at its next yield (mirrors the thread engine's sticky flag).
    while (status_ != status::done) {
      crash_me_ = true;
      enter(nullptr);
    }
  }

  // Runs on the fiber, from inside pcell/pvar.
  void before_access(nvm::access kind) override {
    if (stopping_) throw nvm::crashed{};
    pending_kind_ = kind;
    status_ = status::at_yield;
    end_step();
    if (crash_me_) {
      crash_me_ = false;
      // Unwind: volatile local state of the operation is lost here.
      throw nvm::crashed{};
    }
  }

 private:
  // Build a fresh initial frame on the (reused) stack. The previous task, if
  // any, has fully returned or unwound, so the stack is dead above the base.
  void arm() {
    auto top = (reinterpret_cast<std::uintptr_t>(stack_.get()) +
                k_fiber_stack_bytes) &
               ~std::uintptr_t{15};
    auto* sp = reinterpret_cast<std::uint64_t*>(top);
    *--sp = reinterpret_cast<std::uint64_t>(&detect_fiber_entry);  // ret target
    *--sp = 0;                                                     // rbp
    *--sp = reinterpret_cast<std::uint64_t>(&fiber_strand::fiber_main);  // rbx
    *--sp = reinterpret_cast<std::uint64_t>(this);                 // r12
    *--sp = 0;                                                     // r13
    *--sp = 0;                                                     // r14
    *--sp = 0;                                                     // r15
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fcw));
    // The switch restores fcw from (%rsp) and mxcsr from 4(%rsp).
    *--sp = (std::uint64_t{mxcsr} << 32) | fcw;
    sp_ = sp;
    fake_ = nullptr;  // a fresh fiber has no fake stack to restore (ASan)
  }

  // Driver side: run fibers, starting with this one, until one hands
  // control back. A strand is the NVM hook only while its fiber is live, so
  // direct accesses from the driving thread between steps stay hook-free.
  void enter(step_relay* relay) {
    nvm::access_hook* prev = nvm::tls_hook();
    driver_side d;
    d.relay = relay;
#if DETECT_TSAN_FIBERS
    d.tsan = __tsan_get_current_fiber();
#endif
    drv_ = &d;
    nvm::tls_hook() = this;
    switch_stack(d.sp, &d.fake, sp_, tsan_, stack_.get(), k_fiber_stack_bytes);
#if DETECT_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(d.fake, nullptr, nullptr);
#endif
    nvm::tls_hook() = prev;
  }

  // Fiber side, when this strand's step has ended (parked at its next
  // access, or finished): inside world::run, ask the relay for the next
  // step and keep running, switch straight to the picked fiber, or return
  // to the driver; otherwise always return to the driver.
  void end_step() {
    driver_side& d = *drv_;
    const bool finished = status_ == status::done;
    fiber_strand* next = nullptr;
    if (d.relay != nullptr) {
      nvm::tls_hook() = nullptr;  // decide hook-free, as the driver would
      next = static_cast<fiber_strand*>(d.relay->after_step());
      if (next == this) {
        nvm::tls_hook() = this;
        return;
      }
    }
    void** fake_save = finished ? nullptr : &fake_;
    if (next != nullptr) {
      next->drv_ = &d;
      nvm::tls_hook() = next;
      switch_stack(sp_, fake_save, next->sp_, next->tsan_, next->stack_.get(),
                   k_fiber_stack_bytes);
    } else {
      switch_stack(sp_, fake_save, d.sp, d.tsan, d.stack_bottom, d.stack_size);
    }
    // Resumed, by the driver or by another fiber of a chain: a finished
    // fiber never is.
    resumed();
  }

  // Fiber side, first thing after every switch into this fiber.
  void resumed() {
#if DETECT_ASAN_FIBERS
    // Only the chain's first fiber comes from the driver's stack; record
    // its bounds for the switch back. Later ones come from fiber stacks.
    driver_side& d = *drv_;
    if (d.stack_bottom == nullptr) {
      __sanitizer_finish_switch_fiber(fake_, &d.stack_bottom, &d.stack_size);
    } else {
      __sanitizer_finish_switch_fiber(fake_, nullptr, nullptr);
    }
#endif
  }

  static void fiber_main(fiber_strand* self) {
    self->resumed();
    auto task = std::move(self->task_);
    self->task_ = nullptr;
    try {
      task();
    } catch (const nvm::crashed&) {
      self->interrupted_ = true;
    } catch (...) {
      self->error_ = std::current_exception();
    }
    task = nullptr;  // drop captured state while still on the fiber
    self->status_ = status::done;
    self->end_step();
    // unreachable: nobody resumes a finished fiber
  }

  std::unique_ptr<unsigned char[]> stack_;
  std::function<void()> task_;
  void* sp_ = nullptr;       // this fiber's stack pointer, while not running
  driver_side* drv_ = nullptr;  // the current chain's driver side
  bool crash_me_ = false;    // deliver crash at next resume
  bool stopping_ = false;    // world teardown: fail every further access
  void* fake_ = nullptr;     // ASan: this fiber's parked fake stack
  void* tsan_ = nullptr;     // TSan: this fiber's context
};

// ---------------------------------------------------------------------------
// thread_strand — the original engine: one OS worker per process, parked on
// a per-strand mutex/CV handshake. The reference implementation for the
// engine-equivalence pins.

class thread_strand final : public strand {
 public:
  thread_strand() : thread_([this] { thread_main(); }) {}

  ~thread_strand() override {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void start(std::function<void()> task) override {
    std::unique_lock lock(mu_);
    task_ = std::move(task);
    interrupted_ = false;
    ts_ = tstate::launching;
    cv_.notify_all();
    wait_settled(lock);
  }

  void step(step_relay*) override {
    std::unique_lock lock(mu_);
    ts_ = tstate::stepping;
    cv_.notify_all();
    wait_settled(lock);
  }

  void deliver_crash() override {
    std::unique_lock lock(mu_);
    for (;;) {
      crash_me_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] {
        return ts_ == tstate::done || (ts_ == tstate::at_yield && !crash_me_);
      });
      if (ts_ == tstate::done) break;
      // The task swallowed the crash and yielded again: hit it again.
    }
    status_ = status::done;
  }

  // Runs on the worker thread, from inside pcell/pvar.
  void before_access(nvm::access kind) override {
    std::unique_lock lock(mu_);
    pending_kind_ = kind;
    ts_ = tstate::at_yield;
    cv_.notify_all();
    cv_.wait(lock, [&] { return ts_ == tstate::stepping || crash_me_ || stop_; });
    if (crash_me_ || stop_) {
      crash_me_ = false;
      throw nvm::crashed{};
    }
  }

 private:
  enum class tstate : std::uint8_t { idle, launching, at_yield, stepping, done };

  void wait_settled(std::unique_lock<std::mutex>& lock) {
    cv_.wait(lock, [&] { return ts_ == tstate::at_yield || ts_ == tstate::done; });
    status_ = ts_ == tstate::done ? status::done : status::at_yield;
  }

  void thread_main() {
    nvm::tls_hook() = this;  // all NVM accesses on this thread yield to us
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || ts_ == tstate::launching; });
      if (stop_) return;
      std::function<void()> task = std::move(task_);
      task_ = nullptr;
      bool interrupted = false;
      std::exception_ptr error;
      lock.unlock();
      try {
        task();
      } catch (const nvm::crashed&) {
        interrupted = true;
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      interrupted_ = interrupted;
      error_ = error;
      ts_ = tstate::done;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  tstate ts_ = tstate::idle;  // guarded by mu_
  std::function<void()> task_;
  bool crash_me_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

const char* engine_name(engine_kind e) noexcept {
  return e == engine_kind::thread ? "thread" : "fiber";
}

engine_kind default_engine() noexcept {
  return g_default_engine.load(std::memory_order_relaxed);
}

void set_default_engine(engine_kind e) noexcept {
  g_default_engine.store(e, std::memory_order_relaxed);
}

std::unique_ptr<strand> make_strand(engine_kind engine) {
  if (engine == engine_kind::thread) return std::make_unique<thread_strand>();
  return std::make_unique<fiber_strand>();
}

}  // namespace detect::sim
