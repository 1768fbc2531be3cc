#include "hetscale/support/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale {
namespace {

TEST(Args, ParsesSeparateAndInlineValues) {
  ArgParser args;
  args.add_flag("name", "a name").add_flag("count", "a count");
  args.parse({"--name", "alpha", "--count=7"});
  EXPECT_EQ(args.get("name"), "alpha");
  EXPECT_EQ(args.get_int("count", 0), 7);
}

TEST(Args, BooleanFlags) {
  ArgParser args;
  args.add_bool("verbose", "talk more");
  args.parse({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  ArgParser bare;
  bare.add_bool("verbose", "talk more");
  bare.parse(std::vector<std::string>{});
  EXPECT_FALSE(bare.has("verbose"));
}

TEST(Args, PositionalArgumentsPreserved) {
  ArgParser args;
  args.add_flag("x", "x");
  args.parse({"solve", "--x", "1", "extra"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"solve", "extra"}));
}

TEST(Args, DefaultsApply) {
  ArgParser args;
  args.add_flag("target", "the target", "0.3");
  args.parse(std::vector<std::string>{});
  EXPECT_EQ(args.get("target"), "0.3");
  EXPECT_DOUBLE_EQ(args.get_double("target", -1), -1);  // not provided
  EXPECT_EQ(args.get_or("target", "zz"), "zz");
}

TEST(Args, UnknownFlagRejected) {
  ArgParser args;
  args.add_flag("known", "known");
  EXPECT_THROW(args.parse({"--unknown", "1"}), PreconditionError);
}

TEST(Args, MissingValueRejected) {
  ArgParser args;
  args.add_flag("name", "a name");
  EXPECT_THROW(args.parse({"--name"}), PreconditionError);
}

TEST(Args, BooleanWithValueRejected) {
  ArgParser args;
  args.add_bool("verbose", "talk more");
  EXPECT_THROW(args.parse({"--verbose=yes"}), PreconditionError);
}

TEST(Args, RequiredFlagMissingThrows) {
  ArgParser args;
  args.add_flag("needed", "no default");
  args.parse(std::vector<std::string>{});
  EXPECT_THROW(args.get("needed"), PreconditionError);
}

TEST(Args, NumericValidation) {
  ArgParser args;
  args.add_flag("x", "x");
  args.parse({"--x", "12abc"});
  EXPECT_THROW(args.get_int("x", 0), PreconditionError);
  EXPECT_THROW(args.get_double("x", 0), PreconditionError);
}

TEST(Args, ParseIntTakesWholeFieldsInRange) {
  struct Row {
    const char* text;
    std::int64_t min;
    std::int64_t max;
    std::int64_t value;  ///< expected when `reason` is null
    const char* reason;  ///< expected message fragment on rejection
  };
  constexpr std::int64_t kLow = INT64_MIN;
  constexpr std::int64_t kHigh = INT64_MAX;
  const Row rows[] = {
      {"42", kLow, kHigh, 42, nullptr},
      {"-7", kLow, kHigh, -7, nullptr},
      {"9223372036854775807", kLow, kHigh, kHigh, nullptr},
      {"", kLow, kHigh, 0, "needs an integer"},
      {"12abc", kLow, kHigh, 0, "not an integer"},
      {" 3", kLow, kHigh, 0, "not an integer"},
      {"+3", kLow, kHigh, 0, "not an integer"},
      {"9223372036854775808", kLow, kHigh, 0, "out of range"},
      {"4294967297", 1, 2147483647, 0, "must be in [1, 2147483647]"},
      {"0", 1, 10, 0, "must be in [1, 10]"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string("text '") + row.text + "'");
    if (row.reason == nullptr) {
      EXPECT_EQ(parse_int(row.text, "x", row.min, row.max), row.value);
      continue;
    }
    try {
      (void)parse_int(row.text, "x", row.min, row.max);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(row.reason), std::string::npos)
          << error.what();
    }
  }
}

TEST(Args, IntegerFlagsRejectWrapsAndEmptyValues) {
  // Each row was silently accepted (and wrapped, or read as 0) before.
  struct Row {
    std::vector<std::string> argv;
    std::function<int(const ArgParser&)> resolve;
    const char* reason;
  };
  const auto declare = [](ArgParser& args) {
    add_jobs_flag(args);
    add_sim_threads_flag(args);
  };
  const Row rows[] = {
      {{"--sim-threads", "4294967297"}, resolve_sim_threads, "<= 2147483647"},
      {{"--sim-threads", "2147483648"}, resolve_sim_threads, "<= 2147483647"},
      {{"--sim-threads="}, resolve_sim_threads, "needs an integer"},
      {{"--jobs="}, resolve_jobs, "needs an integer"},
      {{"--jobs", "4294967297"}, resolve_jobs, "<= 2147483647"},
      {{"-j", "99999999999999999999"}, resolve_jobs, "out of range"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.argv.front() + " " + row.argv.back());
    ArgParser args;
    declare(args);
    args.parse(row.argv);
    try {
      (void)row.resolve(args);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(row.reason), std::string::npos)
          << error.what();
    }
  }
}

TEST(Args, HelpListsFlags) {
  ArgParser args;
  args.add_flag("target", "the target", "0.3").add_bool("quiet", "hush");
  const auto text = args.help("prog");
  EXPECT_NE(text.find("--target"), std::string::npos);
  EXPECT_NE(text.find("default: 0.3"), std::string::npos);
  EXPECT_NE(text.find("--quiet"), std::string::npos);
}

TEST(Args, ShortAliasForms) {
  ArgParser args;
  args.add_flag("jobs", "worker threads").add_short('j', "jobs");
  args.parse({"-j", "4"});
  EXPECT_EQ(args.get_int("jobs", 0), 4);

  ArgParser glued;
  glued.add_flag("jobs", "worker threads").add_short('j', "jobs");
  glued.parse({"-j8"});
  EXPECT_EQ(glued.get_int("jobs", 0), 8);

  ArgParser equals;
  equals.add_flag("jobs", "worker threads").add_short('j', "jobs");
  equals.parse({"-j=2"});
  EXPECT_EQ(equals.get_int("jobs", 0), 2);
}

TEST(Args, ShortAliasBooleanAndErrors) {
  ArgParser args;
  args.add_bool("verbose", "talk more").add_short('v', "verbose");
  args.parse({"-v"});
  EXPECT_TRUE(args.has("verbose"));

  ArgParser with_value;
  with_value.add_bool("verbose", "talk more").add_short('v', "verbose");
  EXPECT_THROW(with_value.parse({"-v1"}), PreconditionError);

  ArgParser missing;
  missing.add_flag("jobs", "worker threads").add_short('j', "jobs");
  EXPECT_THROW(missing.parse({"-j"}), PreconditionError);

  ArgParser undeclared;
  EXPECT_THROW(undeclared.add_short('j', "jobs"), PreconditionError);
}

TEST(Args, UndeclaredShortStaysPositional) {
  ArgParser args;
  args.add_flag("x", "x");
  args.parse({"-5", "--x", "1", "-"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"-5", "-"}));
}

TEST(Args, JobsFlagResolution) {
  ArgParser args;
  add_jobs_flag(args);
  args.parse({"-j", "3"});
  EXPECT_EQ(resolve_jobs(args), 3);

  // 0 means "hardware concurrency", the same value normalize_jobs picks.
  ArgParser zero;
  add_jobs_flag(zero);
  zero.parse({"--jobs=0"});
  EXPECT_EQ(resolve_jobs(zero), normalize_jobs(0));
  EXPECT_GE(resolve_jobs(zero), 1);

  ArgParser negative;
  add_jobs_flag(negative);
  negative.parse({"--jobs=-3"});
  EXPECT_THROW(resolve_jobs(negative), PreconditionError);
}

TEST(Args, NormalizeJobsIsTheSingleZeroDefinition) {
  EXPECT_EQ(normalize_jobs(4), 4);
  EXPECT_EQ(normalize_jobs(1), 1);
  EXPECT_GE(normalize_jobs(0), 1);
  EXPECT_THROW(normalize_jobs(-1), PreconditionError);

  // HETSCALE_JOBS=0 routes through the same normalization as --jobs 0.
  ::setenv("HETSCALE_JOBS", "0", 1);
  EXPECT_EQ(default_jobs(), normalize_jobs(0));
  ::unsetenv("HETSCALE_JOBS");
}

TEST(Args, JobsEnvFallback) {
  ArgParser args;
  add_jobs_flag(args);
  args.parse(std::vector<std::string>{});

  ::setenv("HETSCALE_JOBS", "5", 1);
  EXPECT_EQ(default_jobs(), 5);
  EXPECT_EQ(resolve_jobs(args), 5);

  ::setenv("HETSCALE_JOBS", "not-a-number", 1);
  EXPECT_GE(default_jobs(), 1);  // falls back to hardware concurrency

  ::setenv("HETSCALE_JOBS", "-2", 1);
  EXPECT_GE(default_jobs(), 1);

  ::unsetenv("HETSCALE_JOBS");
  EXPECT_GE(default_jobs(), 1);

  // An explicit flag beats the environment.
  ::setenv("HETSCALE_JOBS", "5", 1);
  ArgParser explicit_flag;
  add_jobs_flag(explicit_flag);
  explicit_flag.parse({"--jobs", "2"});
  EXPECT_EQ(resolve_jobs(explicit_flag), 2);
  ::unsetenv("HETSCALE_JOBS");
}

TEST(Args, SeedFlagResolution) {
  ArgParser args;
  add_seed_flag(args);
  args.parse({"--seed", "42"});
  EXPECT_EQ(resolve_seed(args), 42u);

  ArgParser negative;
  add_seed_flag(negative);
  negative.parse({"--seed=-3"});
  EXPECT_THROW(resolve_seed(negative), PreconditionError);

  ArgParser garbled;
  add_seed_flag(garbled);
  garbled.parse({"--seed", "12abc"});
  EXPECT_THROW(resolve_seed(garbled), PreconditionError);
}

TEST(Args, SeedEnvFallback) {
  ArgParser args;
  add_seed_flag(args);
  args.parse(std::vector<std::string>{});

  ::unsetenv("HETSCALE_SEED");
  EXPECT_EQ(default_seed(), 0u);
  EXPECT_EQ(resolve_seed(args), 0u);

  ::setenv("HETSCALE_SEED", "12345", 1);
  EXPECT_EQ(default_seed(), 12345u);
  EXPECT_EQ(resolve_seed(args), 12345u);

  ::setenv("HETSCALE_SEED", "not-a-number", 1);
  EXPECT_EQ(default_seed(), 0u);  // unparsable env falls back to 0

  // An explicit flag beats the environment.
  ::setenv("HETSCALE_SEED", "9", 1);
  ArgParser explicit_flag;
  add_seed_flag(explicit_flag);
  explicit_flag.parse({"--seed", "2"});
  EXPECT_EQ(resolve_seed(explicit_flag), 2u);
  ::unsetenv("HETSCALE_SEED");
}

TEST(Split, SplitsAndTrims) {
  EXPECT_EQ(split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), std::vector<std::string>{});
  EXPECT_EQ(split("one", ','), std::vector<std::string>{"one"});
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace hetscale
