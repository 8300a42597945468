// Move-only callables with inline storage: the continuation type of the
// discrete-event kernel. A replay schedules one or more callbacks per
// event and per task; std::function puts every closure larger than two
// words on the heap, so the kernel's own type stores closures of up to
// `Capacity` bytes in place and falls back to the heap only beyond
// that. The replay's closures are a handful of pointers and indexes
// (kCallbackCapacity holds seven words), so no event and no task of a
// replay allocates. A larger closure still works, one allocation each.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace bvl::sim {

/// Inline bytes of a Callback: seven words, so a Callback is one
/// 64-byte cache line with its operations pointer.
inline constexpr std::size_t kCallbackCapacity = 56;

template <class Sig, std::size_t Capacity = kCallbackCapacity>
class InlineFunction;

/// Like std::function, but move-only and with `Capacity` bytes of
/// inline storage. The call operator is const, as std::function's is,
/// and calls the stored closure as non-const, so a `mutable` lambda can
/// move its captures out. Empty (default-constructed or moved-from)
/// instances test false and must not be called.
template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  template <class F>
  static constexpr bool kInline = sizeof(F) <= Capacity &&
                                  alignof(F) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<F>;

 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
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

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const { return ops_->call(buf_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*call)(void* self, Args&&... args);
    /// Move-constructs the closure at `dst` from `src` and destroys
    /// `src`'s.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* self, Args&&... args) -> R {
        return (*static_cast<D*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* self, Args&&... args) -> R {
        return (**static_cast<D**>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* self) noexcept { delete *static_cast<D**>(self); }};

  void take(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) mutable unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

/// An event's or a task leg's continuation.
using Callback = InlineFunction<void()>;

}  // namespace bvl::sim
