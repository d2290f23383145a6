#include "src/util/status.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/util/check.h"

namespace parsim {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("a"), StatusCode::kInvalidArgument,
       "INVALID_ARGUMENT"},
      {Status::NotFound("b"), StatusCode::kNotFound, "NOT_FOUND"},
      {Status::OutOfRange("c"), StatusCode::kOutOfRange, "OUT_OF_RANGE"},
      {Status::FailedPrecondition("d"), StatusCode::kFailedPrecondition,
       "FAILED_PRECONDITION"},
      {Status::ResourceExhausted("e"), StatusCode::kResourceExhausted,
       "RESOURCE_EXHAUSTED"},
      {Status::Unimplemented("f"), StatusCode::kUnimplemented,
       "UNIMPLEMENTED"},
      {Status::Internal("g"), StatusCode::kInternal, "INTERNAL"},
      {Status::Unavailable("h"), StatusCode::kUnavailable, "UNAVAILABLE"},
      {Status::DeadlineExceeded("i"), StatusCode::kDeadlineExceeded,
       "DEADLINE_EXCEEDED"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(std::string(StatusCodeToString(c.code)), c.name);
  }
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad dimension");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad dimension");
}

TEST(StatusTest, ToStringOmitsEmptyMessage) {
  const Status s = Status::Internal("");
  EXPECT_EQ(s.ToString(), "INTERNAL");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
  EXPECT_EQ(Status::Ok(), Status());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "missing");
}

TEST(ResultTest, ValueOrFallsBackOnError) {
  Result<int> ok(7);
  Result<int> err(Status::Internal("boom"));
  EXPECT_EQ(ok.value_or(-1), 7);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MutableValueAccess) {
  Result<std::string> r(std::string("abc"));
  r.value() += "def";
  EXPECT_EQ(r.value(), "abcdef");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved.size(), 1000u);
}

TEST(StatusDeathTest, OkStatusWithErrorCodeForbidden) {
  EXPECT_DEATH(Status(StatusCode::kOk, "not allowed"), "PARSIM_CHECK");
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_DEATH((void)r.value(), "PARSIM_CHECK");
}

TEST(ResultDeathTest, StatusOnValueAborts) {
  Result<int> r(1);
  EXPECT_DEATH((void)r.status(), "PARSIM_CHECK");
}

TEST(ResultDeathTest, OkStatusAsResultForbidden) {
  EXPECT_DEATH(Result<int>(Status::Ok()), "PARSIM_CHECK");
}

// PARSIM_DCHECK is live exactly when NDEBUG is unset. Builds that define
// it print a skip line instead, so a test log shows whether the
// debug-only contracts ran.
TEST(CheckDeathTest, DcheckFiresWithoutNdebug) {
#ifdef NDEBUG
  std::fprintf(stderr,
               "[ dcheck ] NDEBUG is set: PARSIM_DCHECK compiles out in this "
               "build; skipped\n");
#else
  EXPECT_DEATH(PARSIM_DCHECK(false), "PARSIM_CHECK failed: false");
#endif
}

}  // namespace
}  // namespace parsim
