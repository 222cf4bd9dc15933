// Non-owning callable reference (the C++26 std::function_ref shape).
//
// A hot loop that invokes a callback per item (PollSet::Drain hands every
// ready QP to one) should not pay std::function's heap-backed callable.
// FunctionRef is two words (object pointer + trampoline), never allocates,
// and binds to any callable — lambdas with captures included. The referenced
// callable must outlive the FunctionRef; pass it only DOWN the stack (as
// PollSet::Drain does), never store it.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace ros2 {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& callable) noexcept  // NOLINT: implicit by design
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::add_pointer_t<F>>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*invoke_)(void*, Args...);
};

}  // namespace ros2
