#include "resipe/common/error.hpp"

#include <gtest/gtest.h>

namespace resipe {
namespace {

// A precondition's message reaches users as is (a CLI prints it after
// "error: "), so it carries neither the checked expression nor the
// source location.
TEST(Error, RequireThrowsWithContext) {
  try {
    const int x = 3;
    RESIPE_REQUIRE(x > 5, "x was " << x);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "x was 3");
  }
}

// An invariant failure is a bug of the library: it names the expression
// and where it was checked.
TEST(Error, AssertThrowsInvariant) {
  try {
    RESIPE_ASSERT(false, "broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("invariant failed: (false) at ", 0), 0u) << what;
    EXPECT_NE(what.find("test_error.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find("broken"), std::string::npos);
  }
}

TEST(Error, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(RESIPE_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(RESIPE_ASSERT(1 + 1 == 2, "fine"));
}

TEST(Error, IsARuntimeError) {
  EXPECT_THROW(
      { throw Error("x"); }, std::runtime_error);
}

}  // namespace
}  // namespace resipe
