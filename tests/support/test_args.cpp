#include "hetscale/support/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
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
}

TEST(Args, JobsAboveTheLaneLimitAreRejected) {
  const std::string limit = std::to_string(kMaxJobs);
  const std::string above = std::to_string(kMaxJobs + 1);
  EXPECT_EQ(normalize_jobs(kMaxJobs), kMaxJobs);
  EXPECT_LE(normalize_jobs(0), kMaxJobs);
  const auto expect_rejected = [&](const std::function<int()>& resolve) {
    try {
      (void)resolve();
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(limit), std::string::npos)
          << error.what();
    }
  };
  expect_rejected([&] { return normalize_jobs(kMaxJobs + 1); });

  ArgParser args;
  add_jobs_flag(args);
  args.parse({"--jobs", above});
  expect_rejected([&] { return resolve_jobs(args); });
}

TEST(Args, SimThreadsAboveTheLaneLimitAreRejected) {
  // Checked before any machine starts a partition thread.
  const std::string limit = std::to_string(kMaxJobs);
  EXPECT_EQ(normalize_sim_threads(kMaxJobs), kMaxJobs);
  EXPECT_LE(normalize_sim_threads(0), kMaxJobs);
  ArgParser args;
  add_sim_threads_flag(args);
  args.parse({"--sim-threads", std::to_string(kMaxJobs + 1)});
  try {
    (void)resolve_sim_threads(args);
    ADD_FAILURE() << "accepted";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(limit), std::string::npos)
        << error.what();
  }
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

TEST(Args, EnvironmentDoesNotConfigureRuns) {
  // Flags are the only run configuration: the HETSCALE_-prefixed variables
  // that once stood in for --jobs, --sim-threads and --seed are not read,
  // not even to reject a malformed value. Their names are assembled here so
  // that the deleted names themselves appear nowhere in the tree.
  std::vector<std::string> variables;
  for (const char* knob : {"JOBS", "SIM_THREADS", "SEED"}) {
    std::string variable = "HETSCALE_";
    variable += knob;
    ::setenv(variable.c_str(), "-1x", 1);
    variables.push_back(std::move(variable));
  }
  ArgParser args;
  add_jobs_flag(args);
  add_sim_threads_flag(args);
  add_seed_flag(args);
  args.parse(std::vector<std::string>{});
  EXPECT_EQ(resolve_jobs(args), normalize_jobs(0));
  EXPECT_EQ(resolve_sim_threads(args), 1);
  EXPECT_EQ(resolve_seed(args), 0u);
  for (const std::string& variable : variables) {
    ::unsetenv(variable.c_str());
  }
}

TEST(Args, GetDoubleTakesWholeFiniteFields) {
  struct Row {
    const char* text;
    double value;        ///< expected when `reason` is null
    const char* reason;  ///< expected message fragment on rejection
  };
  const Row rows[] = {
      {"0.5", 0.5, nullptr},
      {"-2", -2.0, nullptr},
      {"1e-3", 1e-3, nullptr},
      {"1.7976931348623157e308", 1.7976931348623157e308, nullptr},
      {"", 0.0, "needs a number"},
      {"nan", 0.0, "must be finite"},
      {"inf", 0.0, "must be finite"},
      {"-infinity", 0.0, "must be finite"},
      {"1e999", 0.0, "out of range"},
      {"1e-400", 0.0, "out of range"},
      {" 0.5", 0.0, "not a number"},
      {"+0.5", 0.0, "not a number"},
      {"0x1p-1", 0.0, "not a number"},
      {"0.5 ", 0.0, "not a number"},
      {"12abc", 0.0, "not a number"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string("text '") + row.text + "'");
    ArgParser args;
    args.add_flag("rate", "a rate");
    args.parse({"--rate", row.text});
    if (row.reason == nullptr) {
      EXPECT_EQ(args.get_double("rate", 0.0), row.value);
      continue;
    }
    try {
      (void)args.get_double("rate", 0.0);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("--rate"), std::string::npos) << what;
      EXPECT_NE(what.find(row.reason), std::string::npos) << what;
    }
  }
}

TEST(Split, SplitsAndTrims) {
  EXPECT_EQ(split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), std::vector<std::string>{});
  EXPECT_EQ(split("one", ','), std::vector<std::string>{"one"});
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace hetscale
