// Non-allocating callback for the event loop.
//
// Paper-scale runs schedule millions of events, so a heap-allocating
// `std::function` per event would dominate the hot path. `SmallFn`
// stores its capture in a fixed `kInlineCapacity`-byte buffer, sized
// for the closures the simulator actually schedules (network
// deliveries, service completions, the arrival pump), so scheduling
// never allocates. A larger or over-aligned capture does not compile:
// the constructor is constrained on the size and `emplace` repeats the
// bound as a `static_assert`.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace brb::sim {

class SmallFn {
 public:
  /// Capture capacity. Covers the largest hot-path closure (server
  /// completion: a by-value `QueuedRead` + durations ≈ 80 B).
  static constexpr std::size_t kInlineCapacity = 96;

  /// True when a callable of type F fits the buffer.
  template <typename F>
  static constexpr bool fits = sizeof(std::decay_t<F>) <= kInlineCapacity &&
                               alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&> &&
                                        fits<F>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): callable sink
    emplace(std::forward<F>(fn));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { invoke_(*this); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(*this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Replaces the target, constructing it in place — lets owners of a
  /// stable SmallFn (event-queue slots) skip the extra move a
  /// pass-by-value SmallFn parameter would cost.
  template <typename F>
  void assign(F&& fn) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
      move_from(fn);
    } else {
      emplace(std::forward<F>(fn));
    }
  }

 private:
  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(fits<Fn>, "SmallFn: capture exceeds the inline buffer");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    invoke_ = [](SmallFn& self) { (*static_cast<Fn*>(self.target()))(); };
    if constexpr (std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>) {
      // No manager at all: moves byte-copy the buffer and destruction
      // is a no-op, which keeps the event queue's pop/release cycle
      // free of indirect calls — the simulator's hot closures
      // (deliveries, completions) capture only ids, times, and raw
      // pointers, so they all land here.
      manage_ = nullptr;
    } else {
      manage_ = [](SmallFn& self, SmallFn* to) {
        Fn* target = static_cast<Fn*>(self.target());
        if (to != nullptr) ::new (static_cast<void*>(to->buf_)) Fn(std::move(*target));
        target->~Fn();
      };
    }
  }

  void* target() noexcept { return buf_; }

  void move_from(SmallFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(other, this);
    } else if (invoke_ != nullptr) {
      // Trivial capture: a fixed-size byte copy beats a managed
      // member-wise move (straight-line, no indirect call). Copying the
      // full buffer over-reads past sizeof(Fn) but never past the
      // buffer, and the source needs no teardown.
      __builtin_memcpy(buf_, other.buf_, kInlineCapacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  using InvokeFn = void (*)(SmallFn&);
  /// Move-constructs the target into `to` and destroys the source;
  /// with `to` null, only destroys.
  using ManageFn = void (*)(SmallFn&, SmallFn*);

  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
};

}  // namespace brb::sim
