// Library-wide exception type and precondition check helper.
#pragma once

#include <stdexcept>
#include <string>

namespace bvl {

/// Thrown on invalid configuration or violated preconditions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws bvl::Error with `msg` when `cond` is false.
///
/// A literal message binds here rather than to the std::string
/// overload, so it becomes a std::string only when the check fails.
/// Through the std::string overload every call, passing or not, would
/// build a temporary string from the literal — a heap allocation once
/// the message outgrows the small-string buffer — and checks sit on
/// hot paths: every event push, every power-model evaluation, every
/// governor decision.
inline void require(bool cond, const char* msg) {
  if (!cond) [[unlikely]] throw Error(msg);
}

/// Throws bvl::Error with `msg` when `cond` is false. The message is
/// built before the call even when the check passes: on a hot path,
/// throw from the failing branch instead.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

}  // namespace bvl
