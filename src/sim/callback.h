// Move-only type-erased `void()` callable for scheduled events.
//
// Every simulated packet crosses several events, and the usual capture —
// a `this` pointer, an int and a shared_ptr, as in Link's delivery
// lambda — is 32 bytes. std::function (libstdc++) heap-allocates every
// target over 16 bytes or not trivially copyable, and insists on
// copyable targets; a Callback stores targets of up to kInlineSize bytes
// in place and falls back to one heap allocation only for larger (or
// over-aligned, or throwing-move) targets.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace iotsec::sim {

class Callback {
 public:
  static constexpr std::size_t kInlineSize = 48;
  /// Over-aligned targets (rare: long double, SIMD types) go to the heap.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  /// True when a target of type F lives inside the Callback (scheduling
  /// it allocates nothing).
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Callback(F&& f) {  // NOLINT: implicit, so lambdas pass straight through
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { TakeFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { Reset(); }

  /// Destroys the target (and its captures); the Callback becomes empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Invokes the target. The Callback must not be empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* target);
    /// Move-constructs the target into `dst`, then destroys the one at
    /// `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* target) noexcept;
  };

  template <typename Fn>
  static void InvokeInline(void* t) {
    (*static_cast<Fn*>(t))();
  }
  template <typename Fn>
  static void RelocateInline(void* dst, void* src) noexcept {
    ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <typename Fn>
  static void DestroyInline(void* t) noexcept {
    static_cast<Fn*>(t)->~Fn();
  }
  template <typename Fn>
  static void InvokeHeap(void* t) {
    (**static_cast<Fn**>(t))();
  }
  template <typename Fn>
  static void RelocateHeap(void* dst, void* src) noexcept {
    ::new (dst) Fn*(*static_cast<Fn**>(src));
  }
  template <typename Fn>
  static void DestroyHeap(void* t) noexcept {
    delete *static_cast<Fn**>(t);
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {&InvokeInline<Fn>, &RelocateInline<Fn>,
                                     &DestroyInline<Fn>};
  template <typename Fn>
  static constexpr Ops kHeapOps = {&InvokeHeap<Fn>, &RelocateHeap<Fn>,
                                   &DestroyHeap<Fn>};

  void TakeFrom(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace iotsec::sim
