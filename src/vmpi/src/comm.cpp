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
    case kTagBarrierOut:
    case kTagBarrierDissem: return obs::CommPhase::kBarrier;
    case kTagGather: return obs::CommPhase::kGather;
    case kTagScatter: return obs::CommPhase::kScatter;
    case kTagBcastScatter: return obs::CommPhase::kBcastScatter;
    case kTagBcastRing: return obs::CommPhase::kBcastRing;
    case kTagBcastDoubling: return obs::CommPhase::kBcastDoubling;
    case kTagAllgather: return obs::CommPhase::kAllgather;
    case kTagAlltoall: return obs::CommPhase::kAlltoall;
    case kTagReduce: return obs::CommPhase::kReduce;
    case kTagAllreduce: return obs::CommPhase::kAllreduce;
    default: return obs::CommPhase::kP2p;
  }
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

Comm::SendRequest Comm::isend(int dst, int tag, double bytes,
                              Payload payload) {
  HETSCALE_REQUIRE(dst >= 0 && dst < size_, "destination rank out of range");
  HETSCALE_REQUIRE(dst != rank_, "send-to-self is not supported");
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
  return SendRequest{result.sender_free};
}

des::Task<void> Comm::wait_send(const SendRequest& request) {
  if (request.sender_free > now()) {
    auto& stats = machine_->rank_stats(rank_);
    const des::SimTime start = now();
    co_await scheduler().resume_at(request.sender_free);
    stats.comm_s += now() - start;
  }
}

des::Task<Message> Comm::recv(int source, int tag) {
  HETSCALE_REQUIRE(source == kAnySource || (source >= 0 && source < size_),
                   "source rank out of range");
  // Partitioned runs batch cross-partition deliveries at window boundaries,
  // so a wildcard's post-order matching would depend on the thread count;
  // source- and tag-specific receives (every collective and algorithm in
  // the tree) match per-sender program order, which is mode-independent.
  HETSCALE_REQUIRE(machine_->partitions() == 1 ||
                       (source != kAnySource && tag != kAnyTag),
                   "wildcard receives are not supported when --sim-threads "
                   "> 1; receive from a specific (source, tag) instead");
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
  if (size_ > 1 &&
      bytes >= machine_->tuning().large_bcast_threshold_bytes) {
    if (machine_->tuning().large_bcast ==
        LargeBcastAlgorithm::kScatterDoubling) {
      return bcast_large_doubling(root, bytes, std::move(payload));
    }
    return bcast_large_ring(root, bytes, std::move(payload));
  }
  if (machine_->tuning().small_bcast == BcastAlgorithm::kBinomialTree) {
    return bcast_binomial(root, bytes, std::move(payload));
  }
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
  switch (machine_->tuning().barrier) {
    case BarrierAlgorithm::kFlatTree:
      co_await barrier_flat();
      break;
    case BarrierAlgorithm::kCombiningTree:
      co_await barrier_combining();
      break;
    case BarrierAlgorithm::kDissemination:
      co_await barrier_dissemination();
      break;
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

des::Task<void> Comm::barrier_dissemination() {
  // Dissemination barrier: in round k every rank sends a token to the rank
  // 2^k ahead and waits on the rank 2^k behind — ceil(log2 p) fully
  // concurrent rounds, no root at all. Distances are distinct powers of two
  // below p, so every (source, round) pair a rank waits on is unique and
  // source-specific receives cannot mismatch across rounds.
  for (int dist = 1; dist < size_; dist <<= 1) {
    const int dst = (rank_ + dist) % size_;
    const int src = (rank_ - dist + size_) % size_;
    co_await send(dst, kTagBarrierDissem, kTokenBytes, {});
    co_await recv(src, kTagBarrierDissem);
  }
}

des::Task<std::vector<Payload>> Comm::gather(int root, double bytes,
                                              Payload payload) {
  HETSCALE_REQUIRE(root >= 0 && root < size_, "root rank out of range");
  if (machine_->tuning().gather == GatherAlgorithm::kBinomialTree) {
    return gather_binomial(root, bytes, std::move(payload));
  }
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

des::Task<Payload> Comm::scatter(int root,
                                  const std::vector<double>& parts_bytes,
                                  std::vector<Payload> parts) {
  HETSCALE_REQUIRE(root >= 0 && root < size_, "root rank out of range");
  if (rank_ == root) {
    HETSCALE_REQUIRE(parts.size() == static_cast<std::size_t>(size_) &&
                         parts_bytes.size() == parts.size(),
                     "scatter needs one part per rank at the root");
  }
  if (machine_->tuning().scatter == GatherAlgorithm::kBinomialTree) {
    return scatter_binomial(root, parts_bytes, std::move(parts));
  }
  return scatter_flat(root, parts_bytes, std::move(parts));
}

des::Task<Payload> Comm::scatter_flat(int root,
                                       const std::vector<double>& parts_bytes,
                                       std::vector<Payload> parts) {
  if (rank_ == root) {
    for (int dst = 0; dst < size_; ++dst) {
      if (dst == root) continue;
      co_await send(dst, kTagScatter, parts_bytes[static_cast<std::size_t>(dst)],
                    std::move(parts[static_cast<std::size_t>(dst)]));
    }
    co_return std::move(parts[static_cast<std::size_t>(root)]);
  }
  Message message = co_await recv(root, kTagScatter);
  co_return std::move(message.payload);
}

des::Task<Payload> Comm::scatter_binomial(
    int root, const std::vector<double>& parts_bytes,
    std::vector<Payload> parts) {
  // Reverse of gather_binomial: each rank first receives the bundle for its
  // whole binomial subtree (on its lowest set vrank bit), keeps its own
  // part, then peels off and forwards the sub-bundles for each child
  // subtree. Bundles are ordered by vrank, so a subtree rooted at vrank v
  // with span m holds the parts for vranks [v, v+m) at indices [0, m).
  const int vrank = (rank_ - root + size_) % size_;
  Payload bundle;
  Payload mine;
  int mask = 1;
  if (vrank == 0) {
    bundle = Payload::make_bundle();
    std::vector<BundlePart>& all = bundle.bundle_parts();
    all.reserve(static_cast<std::size_t>(size_));
    for (int v = 0; v < size_; ++v) {
      const int r = (v + root) % size_;
      all.push_back(BundlePart{r, parts_bytes[static_cast<std::size_t>(r)],
                               std::move(parts[static_cast<std::size_t>(r)])});
    }
    while (mask < size_) mask <<= 1;
  } else {
    while (!(vrank & mask)) mask <<= 1;
    const int src = ((vrank - mask) + root) % size_;
    Message message = co_await recv(src, kTagScatter);
    bundle = std::move(message.payload);
  }
  mine = std::move(bundle.bundle_parts().front().payload);
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_) {
      const int len = std::min(mask, size_ - (vrank + mask));
      Payload child = Payload::make_bundle();
      std::vector<BundlePart>& child_parts = child.bundle_parts();
      child_parts.reserve(static_cast<std::size_t>(len));
      double child_bytes = 0.0;
      for (int i = 0; i < len; ++i) {
        BundlePart& part = bundle.bundle_parts()[static_cast<std::size_t>(mask + i)];
        child_bytes += part.bytes;
        child_parts.push_back(std::move(part));
      }
      const int dst = ((vrank + mask) + root) % size_;
      co_await send(dst, kTagScatter, child_bytes, std::move(child));
    }
    mask >>= 1;
  }
  co_return std::move(mine);
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

namespace {
double apply_reduce(Comm::ReduceOp op, double a, double b) {
  switch (op) {
    case Comm::ReduceOp::kSum: return a + b;
    case Comm::ReduceOp::kMin: return std::min(a, b);
    case Comm::ReduceOp::kMax: return std::max(a, b);
    case Comm::ReduceOp::kProd: return a * b;
  }
  throw ModelError("unknown reduce op");
}
}  // namespace

des::Task<double> Comm::reduce(int root, double value, ReduceOp op) {
  HETSCALE_REQUIRE(root >= 0 && root < size_, "root rank out of range");
  if (machine_->tuning().reduce == ReduceAlgorithm::kCombiningTree) {
    return reduce_combining(root, value, op);
  }
  return reduce_flat(root, value, op);
}

des::Task<double> Comm::reduce_flat(int root, double value, ReduceOp op) {
  // The paper-era shape: gather p scalars to the root (the root really
  // materializes a vector of p payloads) and fold them in rank order.
  auto parts = co_await gather(root, /*bytes=*/8.0, value);
  if (rank_ != root) co_return 0.0;
  double accumulated = parts.front().scalar();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    accumulated = apply_reduce(op, accumulated, parts[i].scalar());
  }
  co_return accumulated;
}

des::Task<double> Comm::reduce_combining(int root, double value,
                                          ReduceOp op) {
  // Binomial combining tree on virtual ranks: partial results fold upward,
  // so every rank holds O(1) state and the root sees ceil(log2 p) messages.
  // The combine is always op(lower subtree, higher subtree), a fixed
  // association — deterministic, though (for floats) a different one than
  // the flat rank-order fold.
  const int vrank = (rank_ - root + size_) % size_;
  double accumulated = value;
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      const int dst = ((vrank - mask) + root) % size_;
      co_await send(dst, kTagReduce, /*bytes=*/8.0, Payload(accumulated));
      co_return 0.0;
    }
    if (vrank + mask < size_) {
      const int src = ((vrank + mask) + root) % size_;
      Message message = co_await recv(src, kTagReduce);
      accumulated = apply_reduce(op, accumulated, message.payload.scalar());
    }
    mask <<= 1;
  }
  co_return accumulated;
}

des::Task<double> Comm::reduce_sum(int root, double value) {
  return reduce(root, value, ReduceOp::kSum);
}

des::Task<double> Comm::allreduce(double value, ReduceOp op) {
  if (machine_->tuning().allreduce == AllreduceAlgorithm::kRecursiveDoubling) {
    return allreduce_doubling(value, op);
  }
  return allreduce_reduce_bcast(value, op);
}

des::Task<double> Comm::allreduce_reduce_bcast(double value, ReduceOp op) {
  constexpr int kRoot = 0;
  const double total = co_await reduce(kRoot, value, op);
  Payload payload;  // named local: see ge.cpp on coroutine temporaries
  if (rank_ == kRoot) payload = total;
  const Payload out = co_await bcast(kRoot, /*bytes=*/8.0, std::move(payload));
  co_return out.scalar();
}

des::Task<double> Comm::allreduce_doubling(double value, ReduceOp op) {
  // Recursive-doubling butterfly. Non-power-of-two p folds the ranks past
  // the largest power of two into mirrors first and unfolds at the end
  // (MPICH's scheme). In every exchange the combine is op(lower rank's
  // value, higher rank's value), so each block of ranks carries one fixed
  // association and the result is bit-identical on every rank.
  if (size_ == 1) co_return value;
  int pof2 = 1;
  while (pof2 * 2 <= size_) pof2 *= 2;
  const int rem = size_ - pof2;
  double accumulated = value;
  if (rank_ >= pof2) {
    co_await send(rank_ - pof2, kTagAllreduce, /*bytes=*/8.0,
                  Payload(accumulated));
  } else {
    if (rank_ < rem) {
      Message message = co_await recv(rank_ + pof2, kTagAllreduce);
      accumulated = apply_reduce(op, accumulated, message.payload.scalar());
    }
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner = rank_ ^ mask;
      co_await send(partner, kTagAllreduce, /*bytes=*/8.0,
                    Payload(accumulated));
      Message message = co_await recv(partner, kTagAllreduce);
      const double theirs = message.payload.scalar();
      accumulated = partner < rank_
                        ? apply_reduce(op, theirs, accumulated)
                        : apply_reduce(op, accumulated, theirs);
    }
  }
  if (rank_ >= pof2) {
    Message message = co_await recv(rank_ - pof2, kTagAllreduce);
    accumulated = message.payload.scalar();
  } else if (rank_ < rem) {
    co_await send(rank_ + pof2, kTagAllreduce, /*bytes=*/8.0,
                  Payload(accumulated));
  }
  co_return accumulated;
}

des::Task<double> Comm::allreduce_sum(double value) {
  return allreduce(value, ReduceOp::kSum);
}

}  // namespace hetscale::vmpi
