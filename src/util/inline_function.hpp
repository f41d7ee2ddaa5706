#pragma once
// InlineFunction: a move-only callable with fixed small-buffer storage and
// *no heap fallback*. The discrete-event hot path (sim/scheduler.hpp)
// stores millions of short-lived callbacks per run;
// std::function would heap-allocate every capture larger than its tiny SBO
// and pay a double indirection on call. InlineFunction trades generality
// for a hard guarantee: constructing, moving and destroying one never
// allocates, and an oversized capture is a *compile-time* error, so an
// accidental fat lambda can't silently reintroduce allocation.
//
// Usage:
//   util::InlineFunction<void(), 48> cb = [this, idx] { fire(idx); };
//   if (cb) cb();
//
// Requirements on the stored callable F:
//   - sizeof(F) <= Capacity and alignof(F) <= alignof(std::max_align_t)
//     (static_asserted; shrink the capture — e.g. pass a pool index instead
//     of a by-value payload — or raise Capacity at the use site)
//   - F is nothrow-move-constructible (stored callables relocate when
//     their containers grow — e.g. Simulation's sampler list — and a
//     throwing move could lose events)

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace oracle::util {

template <typename Signature, std::size_t Capacity>
class InlineFunction;  // undefined; see the R(Args...) specialization

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: match std::function

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    construct(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and construct `f` directly in
  /// the inline buffer — the zero-move path the scheduler uses to build an
  /// event's callback in its slot.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  /// Destroy the stored callable (if any); *this becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  template <typename D>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    static_assert(sizeof(D) <= Capacity,
                  "callable too large for InlineFunction's inline storage: "
                  "shrink the capture (pass indices/pointers, not payloads) "
                  "or raise Capacity at the use site");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callable over-aligned for InlineFunction storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callable must be nothrow-move-constructible");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* p, Args&&... args) -> R {
      return (*std::launder(static_cast<D*>(p)))(std::forward<Args>(args)...);
    };
    // Trivially-relocatable callables (every POD-capture lambda — the whole
    // simulator hot path) skip the ops table entirely: moves are a plain
    // memcpy and destruction is a no-op, with no indirect calls.
    if constexpr (!kTrivial<D>) ops_ = &kOps<D>;
  }

  struct Ops {
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr Ops kOps = {
      [](void* dst, void* src) noexcept {
        D* s = std::launder(static_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { std::launder(static_cast<D*>(p))->~D(); },
  };

  void move_from(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
    } else if (other.invoke_ != nullptr) {
      std::memcpy(buf_, other.buf_, Capacity);
    }
    invoke_ = other.invoke_;
    ops_ = other.ops_;
    other.invoke_ = nullptr;
    other.ops_ = nullptr;
  }

  // Zero-initialized so whole-capacity relocation memcpys never read
  // indeterminate bytes (construction cost only; moves are unaffected).
  alignas(std::max_align_t) unsigned char buf_[Capacity] = {};
  R (*invoke_)(void*, Args&&...) = nullptr;
  const Ops* ops_ = nullptr;
};

template <typename R, typename... Args, std::size_t Capacity>
bool operator==(const InlineFunction<R(Args...), Capacity>& f,
                std::nullptr_t) noexcept {
  return !static_cast<bool>(f);
}

template <typename R, typename... Args, std::size_t Capacity>
bool operator!=(const InlineFunction<R(Args...), Capacity>& f,
                std::nullptr_t) noexcept {
  return static_cast<bool>(f);
}

}  // namespace oracle::util
