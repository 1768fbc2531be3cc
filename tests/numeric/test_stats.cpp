#include "hetscale/numeric/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::numeric {
namespace {

TEST(Stats, MeanOfConstantsIsTheConstant) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
}

TEST(Stats, MeanHandComputed) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyThrows) {
  EXPECT_THROW(mean({}), PreconditionError);
}

TEST(Stats, StddevSampleFormula) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.138089935299395, 1e-12);
}

TEST(Stats, StddevOfSingletonIsZero) {
  const std::vector<double> xs{5.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, RelativeErrorSymmetric) {
  EXPECT_DOUBLE_EQ(relative_error(10.0, 9.0), relative_error(9.0, 10.0));
  EXPECT_DOUBLE_EQ(relative_error(10.0, 9.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
}

}  // namespace
}  // namespace hetscale::numeric
