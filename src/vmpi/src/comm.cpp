#include "hetscale/vmpi/comm.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::vmpi {

des::SimTime Comm::now() const { return scheduler().now(); }

double Comm::rate_flops() const {
  return machine_->processor(rank_).rate_flops;
}

TraceRecorder* Comm::tracer() const { return machine_->tracer(); }

obs::CommPhase Comm::phase_for_tag(int tag) {
  switch (tag) {
    case kTagBcast: return obs::CommPhase::kBcast;
    case kTagBarrierIn:
    case kTagBarrierOut: return obs::CommPhase::kBarrier;
    case kTagGather: return obs::CommPhase::kGather;
    case kTagBcastScatter: return obs::CommPhase::kBcastScatter;
    case kTagBcastRing: return obs::CommPhase::kBcastRing;
    case kTagBcastDoubling: return obs::CommPhase::kBcastDoubling;
    case kTagAllgather: return obs::CommPhase::kAllgather;
    case kTagAlltoall: return obs::CommPhase::kAlltoall;
    default: return obs::CommPhase::kP2p;
  }
}

bool Comm::tree_family() const {
  return machine_->tuning() == CollectiveTuning::tree();
}

des::Task<void> Comm::compute(double flops, double efficiency) {
  HETSCALE_REQUIRE(flops >= 0.0, "flop count must be non-negative");
  HETSCALE_REQUIRE(efficiency > 0.0, "efficiency must be positive");
  const double duration = flops / (rate_flops() * efficiency);
  // compute_s keeps the *healthy* duration even under faults: injected time
  // (slowdown stretch, checkpoints, crash rework) shows up in elapsed and is
  // attributed by the injector's own accounting, so overhead_s() cleanly
  // separates "useful work" from "everything the faults cost".
  machine_->rank_stats(rank_).compute_s += duration;
  const des::SimTime start = now();
  if (auto* hooks = machine_->fault_hooks()) {
    const des::SimTime end = hooks->compute_end(rank_, start, duration);
    HETSCALE_CHECK(end >= start, "fault hooks moved a compute into the past");
    co_await scheduler().resume_at(end);
  } else {
    co_await scheduler().delay(duration);
  }
  if (auto* tracer = machine_->tracer()) {
    tracer->record_interval({rank_, TraceInterval::Kind::kCompute, start,
                             now(), -1, 0, 0.0});
  }
}

net::TransferResult Comm::transmit(int dst, double bytes, des::SimTime start) {
  const int src_node = machine_->processor(rank_).node;
  const int dst_node = machine_->processor(dst).node;
  auto* hooks = machine_->fault_hooks();
  if (hooks == nullptr) {
    return machine_->network().transfer(src_node, dst_node, bytes, start);
  }
  const SendFaultPlan plan = hooks->send_faults(rank_);
  HETSCALE_CHECK(plan.attempts >= 1, "a send needs at least one attempt");
  // Each attempt really occupies the wire (lost frames still congest a
  // shared medium); between attempts the sender sits out an exponentially
  // backed-off timeout. Only the final attempt's arrival matters — the
  // earlier frames were dropped.
  des::SimTime depart = start;
  double timeout = plan.retry_timeout_s;
  net::TransferResult result{};
  for (int attempt = 1; attempt <= plan.attempts; ++attempt) {
    result = machine_->network().transfer(src_node, dst_node, bytes, depart);
    if (attempt < plan.attempts) {
      depart = result.sender_free + timeout;
      timeout *= plan.backoff;
    }
  }
  if (depart > start) hooks->record_retry_wait(rank_, depart - start);
  return result;
}

des::Task<void> Comm::send(int dst, int tag, double bytes, Payload payload) {
  HETSCALE_REQUIRE(dst >= 0 && dst < size_, "destination rank out of range");
  HETSCALE_REQUIRE(dst != rank_, "send-to-self is not supported");
  // Receives reject negative tags, so no receive could take such a message.
  HETSCALE_REQUIRE(tag >= 0, "send tags must be non-negative");
  auto& stats = machine_->rank_stats(rank_);
  const des::SimTime start = now();
  const auto result = transmit(dst, bytes, start);
  machine_->post_message(
      rank_, dst, Message{rank_, tag, bytes, std::move(payload), result.arrival});
  ++stats.messages_sent;
  stats.bytes_sent += bytes;
  if (result.sender_free > start) {
    co_await scheduler().resume_at(result.sender_free);
  }
  stats.comm_s += now() - start;
  if (auto* tracer = machine_->tracer()) {
    tracer->record_interval(
        {rank_, TraceInterval::Kind::kSend, start, now(), dst, tag, bytes});
    tracer->record_message({rank_, dst, tag, bytes, start, result.arrival});
    tracer->record_send(rank_, dst, phase_for_tag(tag), bytes);
  }
}

void Comm::isend(int dst, int tag, double bytes, Payload payload) {
  HETSCALE_REQUIRE(dst >= 0 && dst < size_, "destination rank out of range");
  HETSCALE_REQUIRE(dst != rank_, "send-to-self is not supported");
  HETSCALE_REQUIRE(tag >= 0, "send tags must be non-negative");
  auto& stats = machine_->rank_stats(rank_);
  const des::SimTime start = now();
  const auto result = transmit(dst, bytes, start);
  machine_->post_message(
      rank_, dst, Message{rank_, tag, bytes, std::move(payload), result.arrival});
  ++stats.messages_sent;
  stats.bytes_sent += bytes;
  if (auto* tracer = machine_->tracer()) {
    // The CPU-visible interval is instantaneous; the wire time shows up as
    // the message flow arrow.
    tracer->record_interval(
        {rank_, TraceInterval::Kind::kSend, start, start, dst, tag, bytes});
    tracer->record_message({rank_, dst, tag, bytes, start, result.arrival});
    tracer->record_send(rank_, dst, phase_for_tag(tag), bytes);
  }
}

des::Task<Message> Comm::recv(int source, int tag) {
  HETSCALE_REQUIRE(source >= 0 && source < size_, "source rank out of range");
  HETSCALE_REQUIRE(tag >= 0, "receive tags must be non-negative");
  auto& stats = machine_->rank_stats(rank_);
  const des::SimTime start = now();
  Mailbox& box = machine_->mailbox(rank_);
  for (;;) {
    if (auto message = box.take_match(source, tag)) {
      if (message->arrival > now()) {
        co_await scheduler().resume_at(message->arrival);
      }
      // Receive processing occupies this rank's CPU, so back-to-back
      // receives (incast at a flat-gather root) serialize here. Guarded so
      // the default (0.0) leaves the event schedule untouched.
      const double recv_cost = machine_->network().params().recv_overhead_s;
      if (recv_cost > 0.0) {
        co_await scheduler().delay(recv_cost);
      }
      stats.comm_s += now() - start;
      if (auto* tracer = machine_->tracer()) {
        tracer->record_interval({rank_, TraceInterval::Kind::kRecv, start,
                                 now(), message->source, message->tag,
                                 message->bytes});
        // Receiver-side wait: the whole blocked interval, charged to the
        // cell of the message that released it.
        tracer->record_wait(message->source, rank_,
                            phase_for_tag(message->tag), now() - start);
      }
      co_return std::move(*message);
    }
    co_await box.wait_for_post(source, tag);
  }
}

des::Task<Payload> Comm::bcast(int root, double bytes, Payload payload) {
  HETSCALE_REQUIRE(root >= 0 && root < size_, "root rank out of range");
  if (size_ > 1 && bytes >= kLargeBcastThresholdBytes) {
    if (tree_family()) {
      return bcast_large_doubling(root, bytes, std::move(payload));
    }
    return bcast_large_ring(root, bytes, std::move(payload));
  }
  if (tree_family()) return bcast_binomial(root, bytes, std::move(payload));
  return bcast_flat(root, bytes, std::move(payload));
}

des::Task<Payload> Comm::bcast_binomial(int root, double bytes,
                                         Payload payload) {
  // Classic binomial tree on virtual ranks (vrank = rank - root mod p):
  // in round k, every rank that already holds the value and whose k-th bit
  // is free sends to vrank + 2^k. Θ(log p) rounds of concurrent sends.
  const int vrank = (rank_ - root + size_) % size_;
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      const int src = ((vrank - mask) + root) % size_;
      Message message = co_await recv(src, kTagBcast);
      payload = std::move(message.payload);
      break;
    }
    mask <<= 1;
  }
  // After the receive loop, `mask` is the bit on which this rank received
  // (or the first power of two >= p at the root); every lower bit names a
  // subtree this rank is responsible for.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_) {
      const int dst = ((vrank + mask) + root) % size_;
      co_await send(dst, kTagBcast, bytes, payload);
    }
    mask >>= 1;
  }
  co_return std::move(payload);
}

des::Task<Payload> Comm::bcast_flat(int root, double bytes,
                                     Payload payload) {
  if (rank_ == root) {
    // Flat tree: the root pushes a copy to every other rank in rank order.
    // Root-sourced traffic serializes on the root's link, so this costs
    // Θ(p), matching the paper's measured T_bcast ≈ const · p.
    for (int dst = 0; dst < size_; ++dst) {
      if (dst == root) continue;
      co_await send(dst, kTagBcast, bytes, payload);
    }
    co_return payload;
  }
  Message message = co_await recv(root, kTagBcast);
  co_return std::move(message.payload);
}

des::Task<Payload> Comm::bcast_large_ring(int root, double bytes,
                                           Payload payload) {
  // Van de Geijn long-message broadcast: scatter 1/p-sized chunks from the
  // root, then a ring allgather. Wall time ~ 2·bytes·(p-1)/(p·B) plus Θ(p)
  // latency on a switched network. The *real* payload rides on the scatter
  // messages (each rank needs the whole value); the ring rounds move
  // timing-only chunks.
  const double chunk = bytes / static_cast<double>(size_);
  Payload out;
  if (rank_ == root) {
    for (int dst = 0; dst < size_; ++dst) {
      if (dst == root) continue;
      co_await send(dst, kTagBcastScatter, chunk, payload);
    }
    out = std::move(payload);
  } else {
    Message message = co_await recv(root, kTagBcastScatter);
    out = std::move(message.payload);
  }
  const int next = (rank_ + 1) % size_;
  const int prev = (rank_ - 1 + size_) % size_;
  for (int round = 0; round + 1 < size_; ++round) {
    co_await send(next, kTagBcastRing, chunk, {});
    co_await recv(prev, kTagBcastRing);
  }
  co_return out;
}

des::Task<Payload> Comm::bcast_large_doubling(int root, double bytes,
                                               Payload payload) {
  // Logarithmic long-message broadcast: binomial scatter of 1/p-sized
  // chunks, then a Bruck-style doubling allgather — ~2·bytes/B total wire
  // time in Θ(log p) rounds, against the ring's Θ(p). As in the ring
  // variant, the *real* payload rides the scatter messages (each rank needs
  // the whole value); the allgather rounds move timing-only chunks.
  const double chunk = bytes / static_cast<double>(size_);
  const int vrank = (rank_ - root + size_) % size_;
  Payload out;
  int mask = 1;
  if (vrank == 0) {
    out = std::move(payload);
    while (mask < size_) mask <<= 1;
  } else {
    while (!(vrank & mask)) mask <<= 1;
    const int src = ((vrank - mask) + root) % size_;
    Message message = co_await recv(src, kTagBcastScatter);
    out = std::move(message.payload);
  }
  // Forward chunk bundles to each binomial subtree; the modeled size is the
  // subtree's share of the chunks.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_) {
      const int len = std::min(mask, size_ - (vrank + mask));
      const int dst = ((vrank + mask) + root) % size_;
      co_await send(dst, kTagBcastScatter, chunk * len, out);
    }
    mask >>= 1;
  }
  // Doubling allgather: in round k every rank owns 2^k chunks and swaps
  // them with the rank 2^k away, so all p chunks land everywhere after
  // ceil(log2 p) rounds.
  for (int dist = 1; dist < size_; dist <<= 1) {
    const int blocks = std::min(dist, size_ - dist);
    const int dst = (rank_ - dist + size_) % size_;
    const int src = (rank_ + dist) % size_;
    co_await send(dst, kTagBcastDoubling, chunk * blocks, {});
    co_await recv(src, kTagBcastDoubling);
  }
  co_return out;
}

des::Task<void> Comm::barrier() {
  // Explicit open/close (not RAII): the coroutine frame may be destroyed at
  // an unrelated virtual time, so the span must close at the single exit
  // point below, while the rank is still running.
  auto* tracer = machine_->tracer();
  const std::size_t span =
      tracer ? tracer->spans().open(rank_, tracer->barrier_name_id(), now())
             : obs::kNoSpan;
  if (tree_family()) {
    co_await barrier_combining();
  } else {
    co_await barrier_flat();
  }
  if (tracer) tracer->spans().close(span, now());
}

des::Task<void> Comm::barrier_flat() {
  // All-to-root token gather, then a root-to-all release — 2(p-1) messages,
  // both legs serialized on the root.
  constexpr int kRoot = 0;
  if (rank_ == kRoot) {
    for (int src = 0; src < size_; ++src) {
      if (src == kRoot) continue;
      co_await recv(src, kTagBarrierIn);
    }
    for (int dst = 0; dst < size_; ++dst) {
      if (dst == kRoot) continue;
      co_await send(dst, kTagBarrierOut, kTokenBytes, {});
    }
  } else {
    co_await send(kRoot, kTagBarrierIn, kTokenBytes, {});
    co_await recv(kRoot, kTagBarrierOut);
  }
}

des::Task<void> Comm::barrier_combining() {
  // Binomial combine of tokens to rank 0, then a binomial release — still
  // 2(p-1) messages, but Θ(log p) rounds on each leg.
  int mask = 1;
  while (mask < size_) {
    if (rank_ & mask) {
      co_await send(rank_ - mask, kTagBarrierIn, kTokenBytes, {});
      break;
    }
    if (rank_ + mask < size_) co_await recv(rank_ + mask, kTagBarrierIn);
    mask <<= 1;
  }
  // `mask` is the bit this rank combined up on (or the first power of two
  // >= p at rank 0); every lower bit names a subtree to release.
  if (rank_ != 0) co_await recv(rank_ - mask, kTagBarrierOut);
  mask >>= 1;
  while (mask > 0) {
    if (rank_ + mask < size_) {
      co_await send(rank_ + mask, kTagBarrierOut, kTokenBytes, {});
    }
    mask >>= 1;
  }
}

des::Task<std::vector<Payload>> Comm::gather(int root, double bytes,
                                              Payload payload) {
  HETSCALE_REQUIRE(root >= 0 && root < size_, "root rank out of range");
  if (tree_family()) return gather_binomial(root, bytes, std::move(payload));
  return gather_flat(root, bytes, std::move(payload));
}

des::Task<std::vector<Payload>> Comm::gather_flat(int root, double bytes,
                                                   Payload payload) {
  if (rank_ != root) {
    co_await send(root, kTagGather, bytes, std::move(payload));
    co_return std::vector<Payload>{};
  }
  std::vector<Payload> parts(static_cast<std::size_t>(size_));
  parts[static_cast<std::size_t>(root)] = std::move(payload);
  for (int src = 0; src < size_; ++src) {
    if (src == root) continue;
    Message message = co_await recv(src, kTagGather);
    parts[static_cast<std::size_t>(src)] = std::move(message.payload);
  }
  co_return parts;
}

des::Task<std::vector<Payload>> Comm::gather_binomial(int root, double bytes,
                                                       Payload payload) {
  // Mirror image of bcast_binomial on virtual ranks: in round k, every rank
  // whose k-th bit is set sends its accumulated subtree bundle to
  // vrank - 2^k and is done; the rest absorb the bundle arriving from
  // vrank + 2^k. p-1 messages in Θ(log p) rounds; the modeled size of a
  // bundle is the sum of its members' contributions.
  const int vrank = (rank_ - root + size_) % size_;
  Payload bundle = Payload::make_bundle();
  bundle.bundle_parts().push_back(BundlePart{rank_, bytes, std::move(payload)});
  double bundle_bytes = bytes;
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      const int dst = ((vrank - mask) + root) % size_;
      co_await send(dst, kTagGather, bundle_bytes, std::move(bundle));
      co_return std::vector<Payload>{};
    }
    if (vrank + mask < size_) {
      const int src = ((vrank + mask) + root) % size_;
      Message message = co_await recv(src, kTagGather);
      std::vector<BundlePart>& sub = message.payload.bundle_parts();
      std::vector<BundlePart>& parts = bundle.bundle_parts();
      for (BundlePart& part : sub) parts.push_back(std::move(part));
      bundle_bytes += message.bytes;
    }
    mask <<= 1;
  }
  std::vector<Payload> parts(static_cast<std::size_t>(size_));
  for (BundlePart& part : bundle.bundle_parts()) {
    parts[static_cast<std::size_t>(part.rank)] = std::move(part.payload);
  }
  co_return parts;
}

des::Task<std::vector<Payload>> Comm::allgather(double bytes,
                                                 Payload payload) {
  std::vector<Payload> parts(static_cast<std::size_t>(size_));
  parts[static_cast<std::size_t>(rank_)] = std::move(payload);
  if (size_ == 1) co_return parts;
  const int next = (rank_ + 1) % size_;
  const int prev = (rank_ - 1 + size_) % size_;
  // Ring: in round r, pass along the part that originated r hops back.
  for (int round = 0; round < size_ - 1; ++round) {
    const int outgoing = (rank_ - round + size_) % size_;
    const int incoming = (prev - round + size_) % size_;
    co_await send(next, kTagAllgather, bytes,
                  parts[static_cast<std::size_t>(outgoing)]);
    Message message = co_await recv(prev, kTagAllgather);
    parts[static_cast<std::size_t>(incoming)] = std::move(message.payload);
  }
  co_return parts;
}

des::Task<std::vector<Payload>> Comm::alltoall(
    const std::vector<double>& parts_bytes, std::vector<Payload> parts) {
  HETSCALE_REQUIRE(parts.size() == static_cast<std::size_t>(size_) &&
                       parts_bytes.size() == parts.size(),
                   "alltoall needs one part per destination on every rank");
  std::vector<Payload> received(static_cast<std::size_t>(size_));
  received[static_cast<std::size_t>(rank_)] =
      std::move(parts[static_cast<std::size_t>(rank_)]);
  // Sends are buffered, so post them all first (shifted order spreads the
  // traffic) and only then drain the receives — this avoids coupling the
  // rounds, which would make the whole exchange pay for the largest part
  // in every round when part sizes are skewed.
  for (int k = 1; k < size_; ++k) {
    const int dst = (rank_ + k) % size_;
    co_await send(dst, kTagAlltoall,
                  parts_bytes[static_cast<std::size_t>(dst)],
                  std::move(parts[static_cast<std::size_t>(dst)]));
  }
  for (int k = 1; k < size_; ++k) {
    const int src = (rank_ - k + size_) % size_;
    Message message = co_await recv(src, kTagAlltoall);
    received[static_cast<std::size_t>(src)] = std::move(message.payload);
  }
  co_return received;
}

}  // namespace hetscale::vmpi
