// TimedNetwork — a benchmark-owned decorator that counts and times every
// Network::transfer call of the model it wraps.
//
// It forwards lookahead_s() and wire_model() so the machine it sits in
// behaves exactly like one built on the inner model; simulated results are
// bit-identical (the driver checks this). Its counters are plain fields, so
// it is only used on sequential (--sim-threads 1) replays.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "hetscale/net/network.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::bench {

class TimedNetwork final : public net::Network {
 public:
  explicit TimedNetwork(std::unique_ptr<net::Network> inner)
      : net::Network(inner->params()), inner_(std::move(inner)) {}

  net::TransferResult transfer(int src_node, int dst_node, double bytes,
                               des::SimTime depart) override {
    record_traffic(bytes);
    const auto start = std::chrono::steady_clock::now();
    const net::TransferResult result =
        inner_->transfer(src_node, dst_node, bytes, depart);
    host_s_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
    ++transfers_;
    return result;
  }

  double lookahead_s() const override { return inner_->lookahead_s(); }
  const net::Network& wire_model() const override {
    return inner_->wire_model();
  }

  std::uint64_t transfers() const { return transfers_; }
  double host_s() const { return host_s_; }

 private:
  // Never reached: transfer() is overridden wholesale.
  net::TransferResult remote_transfer(int, int, double,
                                      des::SimTime) override {
    HETSCALE_CHECK(false, "TimedNetwork overrides transfer() wholesale");
    return {};
  }

  std::unique_ptr<net::Network> inner_;
  std::uint64_t transfers_ = 0;
  double host_s_ = 0.0;
};

}  // namespace hetscale::bench
