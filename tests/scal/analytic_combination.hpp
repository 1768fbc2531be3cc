// A closed-form Combination for exercising the solver and series logic
// without simulation cost: E_s(n) = n / (n + knee), so the required size
// for target e is exactly n* = ceil(knee * e / (1 - e)).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal::testing {

class AnalyticCombination final : public Combination {
 public:
  AnalyticCombination(std::string name, double marked_speed, double knee)
      : name_(std::move(name)), marked_speed_(marked_speed), knee_(knee) {}

  const std::string& name() const override { return name_; }
  double marked_speed() const override { return marked_speed_; }

  double work(std::int64_t n) const override {
    const double dn = static_cast<double>(n);
    return dn * dn * dn;
  }

  double efficiency(std::int64_t n) const {
    return static_cast<double>(n) / (static_cast<double>(n) + knee_);
  }

  /// Exact smallest integer n with efficiency(n) >= e (epsilon guard so a
  /// mathematically integral threshold does not round up spuriously).
  std::int64_t required_size(double e) const {
    return static_cast<std::int64_t>(
        std::ceil(knee_ * e / (1.0 - e) - 1e-9));
  }

  /// Every size simulate() has run, ascending (batches may run it from
  /// several threads in any order).
  std::vector<std::int64_t> simulated() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::int64_t> sizes = simulated_;
    std::sort(sizes.begin(), sizes.end());
    return sizes;
  }

 private:
  Measurement simulate(std::int64_t n) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      simulated_.push_back(n);
    }
    const double es = efficiency(n);
    Measurement m;
    m.n = n;
    m.work_flops = work(n);
    m.seconds = m.work_flops / (marked_speed_ * es);
    m.speed_flops = m.work_flops / m.seconds;
    m.speed_efficiency = es;
    m.overhead_s = m.seconds * (1.0 - es);
    return m;
  }

  std::string name_;
  double marked_speed_;
  double knee_;
  mutable std::mutex mutex_;
  mutable std::vector<std::int64_t> simulated_;
};

}  // namespace hetscale::scal::testing
