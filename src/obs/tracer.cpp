#include "obs/tracer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <sstream>
#include <string>

namespace obs {

namespace {

/// One entry per EventType, in declaration order. The static_assert below
/// is the drift guard: adding an EventType without a name (or vice versa)
/// fails to compile instead of silently rendering "unknown" — and the
/// round-trip unit test in test_obs pins that every name parses back.
constexpr std::array<std::string_view, kNumEventTypes> kEventTypeNames = {
    "sched.dispatch",        // kSchedulerDispatch
    "net.send",              // kNetSend
    "net.deliver",           // kNetDeliver
    "net.drop_partition",    // kNetDropPartition
    "net.drop_random",       // kNetDropRandom
    "net.drop_crashed",      // kNetDropCrashed
    "broadcast.originate",   // kBroadcastOriginate
    "broadcast.send",        // kBroadcastSend
    "broadcast.deliver",     // kBroadcastDeliver
    "broadcast.duplicate",   // kBroadcastDuplicate
    "anti_entropy.digest",   // kAntiEntropyDigest
    "anti_entropy.repair",   // kAntiEntropyRepair
    "merge.tail_append",     // kMergeTailAppend
    "merge.mid_insert",      // kMergeMidInsert
    "merge.undo",            // kMergeUndo
    "merge.redo",            // kMergeRedo
    "checkpoint.take",       // kCheckpointTake
    "checkpoint.invalidate", // kCheckpointInvalidate
    "node.crash",            // kCrash
    "node.restart",          // kRestart
    "partition.open",        // kPartitionOpen
    "partition.heal",        // kPartitionHeal
    "byzantine.corrupt",     // kByzantineCorrupt
    "byzantine.duplicate",   // kByzantineDuplicate
    "byzantine.reorder",     // kByzantineReorder
    "broadcast.batch_send",  // kBroadcastBatchSend
};
static_assert(kEventTypeNames.size() == kNumEventTypes,
              "event name table out of sync with EventType — add the new "
              "type's name at its declaration position");
static_assert(static_cast<std::size_t>(EventType::kBroadcastBatchSend) ==
                  kNumEventTypes - 1,
              "kNumEventTypes must be derived from the LAST EventType "
              "enumerator — update it when appending types");

}  // namespace

std::string_view event_type_name(EventType t) {
  const auto i = static_cast<std::size_t>(t);
  if (i >= kNumEventTypes) return "unknown";
  return kEventTypeNames[i];
}

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      type_counts_(kNumEventTypes, 0) {
  buf_.reserve(capacity_);
}

void Tracer::set_sequencer(std::atomic<std::uint64_t>* sequencer) {
  sequencer_ = sequencer;
  if (sequencer_ != nullptr) seq_buf_.reserve(capacity_);
}

void Tracer::record(const Event& e) {
  ++recorded_;
  ++type_counts_[static_cast<std::size_t>(e.type)];
  const std::uint64_t seq =
      sequencer_ != nullptr
          ? sequencer_->fetch_add(1, std::memory_order_relaxed)
          : 0;
  if (buf_.size() < capacity_) {
    buf_.push_back(e);
    if (sequencer_ != nullptr) seq_buf_.push_back(seq);
    head_ = buf_.size() % capacity_;
    full_ = buf_.size() == capacity_ && head_ == 0;
  } else {
    buf_[head_] = e;
    if (sequencer_ != nullptr) {
      seq_buf_.resize(buf_.size());
      seq_buf_[head_] = seq;
    }
    head_ = (head_ + 1) % capacity_;
    full_ = true;
  }
  for (Sink* s : sinks_) s->on_event(e);
}

std::vector<Event> Tracer::ring() const {
  std::vector<Event> out;
  out.reserve(ring_size());
  if (!full_) {
    out.assign(buf_.begin(), buf_.begin() + head_);
    return out;
  }
  out.insert(out.end(), buf_.begin() + head_, buf_.end());
  out.insert(out.end(), buf_.begin(), buf_.begin() + head_);
  return out;
}

std::vector<std::uint64_t> Tracer::ring_seqs() const {
  std::vector<std::uint64_t> out;
  if (sequencer_ == nullptr) return out;
  out.reserve(ring_size());
  if (!full_) {
    out.assign(seq_buf_.begin(), seq_buf_.begin() + head_);
    return out;
  }
  out.insert(out.end(), seq_buf_.begin() + head_, seq_buf_.end());
  out.insert(out.end(), seq_buf_.begin(), seq_buf_.begin() + head_);
  return out;
}

std::vector<Event> slice_window(const std::vector<Event>& events,
                                std::uint64_t ts_logical, sim::NodeId ts_node,
                                std::size_t context) {
  std::vector<char> keep(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].ts_logical != ts_logical || events[i].ts_node != ts_node ||
        (ts_logical == 0 && events[i].ts_logical == 0)) {
      continue;
    }
    const std::size_t lo = i >= context ? i - context : 0;
    const std::size_t hi = std::min(events.size(), i + context + 1);
    for (std::size_t j = lo; j < hi; ++j) keep[j] = 1;
  }
  std::vector<Event> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (keep[i]) out.push_back(events[i]);
  }
  return out;
}

std::vector<Event> Tracer::slice_around(std::uint64_t ts_logical,
                                        sim::NodeId ts_node,
                                        std::size_t context) const {
  return slice_window(ring(), ts_logical, ts_node, context);
}

std::string serialize(const std::vector<Event>& events) {
  std::ostringstream os;
  std::array<char, 32> tbuf;
  for (const Event& e : events) {
    // Shortest decimal that round-trips the exact double — readable AND
    // lossless, so serialized streams are faithful trace-diff inputs.
    const auto [end, ec] =
        std::to_chars(tbuf.data(), tbuf.data() + tbuf.size(), e.time);
    os << event_type_name(e.type) << " t="
       << std::string_view(tbuf.data(),
                           static_cast<std::size_t>(end - tbuf.data()))
       << " n=" << e.node << " ts=" << e.ts_logical << ':' << e.ts_node
       << " a=" << e.a << " b=" << e.b << '\n';
  }
  return os.str();
}

std::uint64_t digest(const std::vector<Event>& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a-64 offset basis
  for (const char c : serialize(events)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV-1a-64 prime
  }
  return h;
}

bool event_type_from_name(std::string_view name, EventType& out) {
  for (std::size_t i = 0; i < kNumEventTypes; ++i) {
    if (kEventTypeNames[i] == name) {
      out = static_cast<EventType>(i);
      return true;
    }
  }
  return false;
}

namespace {

/// Consume "<prefix><number>" from the front of `s`; true on success.
template <typename T>
bool eat_field(std::string_view& s, std::string_view prefix, T& out) {
  if (s.substr(0, prefix.size()) != prefix) return false;
  s.remove_prefix(prefix.size());
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

bool parse_line(std::string_view line, Event& e) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return false;
  if (!event_type_from_name(line.substr(0, sp), e.type)) return false;
  std::string_view rest = line.substr(sp);
  return eat_field(rest, " t=", e.time) && eat_field(rest, " n=", e.node) &&
         eat_field(rest, " ts=", e.ts_logical) &&
         eat_field(rest, ":", e.ts_node) && eat_field(rest, " a=", e.a) &&
         eat_field(rest, " b=", e.b) && rest.empty();
}

}  // namespace

bool deserialize(std::string_view text, std::vector<Event>& out,
                 std::size_t* error) {
  std::size_t line_no = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (line.empty()) {  // trailing newline / blank line
      ++line_no;
      continue;
    }
    Event e;
    if (!parse_line(line, e)) {
      if (error != nullptr) *error = line_no;
      return false;
    }
    out.push_back(e);
    ++line_no;
  }
  return true;
}

}  // namespace obs
