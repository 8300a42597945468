// bvl::require: both overloads throw bvl::Error carrying the message
// verbatim, and a passing check with a literal message allocates
// nothing — checks sit on per-event and per-power-evaluation paths.
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

namespace {

// Every global allocation in this test binary goes through here.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bvl {
namespace {

// Longer than any std::string small-buffer: built as a std::string it
// must allocate.
constexpr const char* kLongMessage =
    "require: a precondition message well past the small-string buffer";

TEST(Require, PassingLiteralCheckDoesNotAllocate) {
  ASSERT_GT(std::string(kLongMessage).size(), std::string().capacity());
  volatile bool ok = true;  // keeps the checks from folding away
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) require(ok, kLongMessage);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Require, LiteralOverloadThrowsTheExactMessage) {
  try {
    require(false, kLongMessage);
    FAIL() << "require(false, literal) did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), kLongMessage);
  }
}

TEST(Require, StringOverloadThrowsTheExactMessage) {
  const std::string msg = std::string("computed: ") + std::to_string(42);
  try {
    require(false, msg);
    FAIL() << "require(false, string) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), msg);
  }
}

}  // namespace
}  // namespace bvl
