#include "hetscale/obs/span.hpp"

#include "hetscale/support/error.hpp"

namespace hetscale::obs {

namespace {

SpanCategory infer_category(const std::string& name) {
  if (name == "compute") return SpanCategory::kCompute;
  if (name == "send.wait" || name == "recv.wait" || name == "barrier") {
    return SpanCategory::kComm;
  }
  if (name == "checkpoint" || name.rfind("fault.", 0) == 0) {
    return SpanCategory::kFault;
  }
  return SpanCategory::kOther;
}

}  // namespace

int SpanStore::intern(const std::string& name) {
  return intern(name, infer_category(name));
}

int SpanStore::intern(const std::string& name, SpanCategory category) {
  HETSCALE_REQUIRE(!name.empty(), "span name must be non-empty");
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  categories_.push_back(category);
  ids_.emplace(name, id);
  return id;
}

const std::string& SpanStore::name(int id) const {
  HETSCALE_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
                   "span name id out of range");
  return names_[static_cast<std::size_t>(id)];
}

SpanCategory SpanStore::category(int id) const {
  HETSCALE_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
                   "span name id out of range");
  return categories_[static_cast<std::size_t>(id)];
}

void SpanStore::presize_lanes(int lanes) {
  if (lanes > this->lanes()) lanes_.resize(static_cast<std::size_t>(lanes));
}

SpanStore::Lane& SpanStore::lane_for_write(int lane) {
  HETSCALE_REQUIRE(lane >= 0, "span lane must be >= 0");
  presize_lanes(lane + 1);
  return lanes_[static_cast<std::size_t>(lane)];
}

const std::deque<Span>& SpanStore::lane(int lane) const {
  HETSCALE_REQUIRE(lane >= 0 && lane < lanes(), "span lane out of range");
  return lanes_[static_cast<std::size_t>(lane)].spans;
}

std::size_t SpanStore::size() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.spans.size();
  return total;
}

std::size_t SpanStore::open_count() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += static_cast<std::size_t>(lane.open);
  return total;
}

void SpanStore::record(int lane, int name_id, double begin, double end,
                       int peer, int tag, double bytes) {
  HETSCALE_REQUIRE(end >= begin, "span must not end before it begins");
  name(name_id);  // bounds check
  Lane& into = lane_for_write(lane);
  into.spans.push_back(Span{name_id, into.open, peer, tag, begin, end, bytes});
}

// A handle packs the lane into the high 32 bits and the span's index within
// the lane into the low 32.
std::size_t SpanStore::open(int lane, int name_id, double begin) {
  name(name_id);  // bounds check
  Lane& into = lane_for_write(lane);
  HETSCALE_REQUIRE(into.spans.size() < (std::size_t{1} << 32),
                   "too many spans on one lane");
  const std::size_t handle =
      (static_cast<std::size_t>(lane) << 32) | into.spans.size();
  // end < begin marks the span as open; close() fills the real end.
  const Span span{name_id, into.open, -1, 0, begin, begin - 1.0, 0.0};
  into.spans.push_back(span);
  ++into.open;
  return handle;
}

void SpanStore::close(std::size_t handle, double end) {
  if (handle == kNoSpan) return;
  const std::size_t lane = handle >> 32;
  const std::size_t index = handle & 0xffffffffu;
  HETSCALE_REQUIRE(lane < lanes_.size() && index < lanes_[lane].spans.size(),
                   "span handle out of range");
  Lane& owner = lanes_[lane];
  Span& span = owner.spans[index];
  HETSCALE_REQUIRE(span.end < span.begin, "span is already closed");
  HETSCALE_REQUIRE(end >= span.begin, "span must not end before it begins");
  span.end = end;
  --owner.open;
}

}  // namespace hetscale::obs
