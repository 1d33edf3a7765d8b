// Structured event tracing: bounded in-memory ring + pluggable sinks.
//
// Components hold an `obs::Tracer*` that defaults to nullptr; the disabled
// path is a single pointer test (`if (tracer_) tracer_->record(...)`), so
// tracing costs one predictable branch when off. When on, every event goes
// into a bounded ring (the always-available recent-history window used by
// the checker's counter-example dumps) and to every attached sink (metrics
// derivation, streaming JSON export, determinism capture).
//
// Recording never changes protocol behavior: the tracer draws no random
// numbers, schedules no events, and the components emit the same calls in
// the same order for a given (seed, configuration) — which is what makes
// the trace stream itself a determinism witness.
//
// Two shapes implement the read-side surface (TraceSource): a single
// Tracer, and ShardedTracer (sharded_tracer.hpp) — one Tracer ring per
// node, merged on demand; both cluster drivers trace through the latter.
// Components always record through a concrete Tracer* (their own shard);
// only consumers that *read* the stream (incident bundles, exporters,
// pinning) go through the interface.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace obs {

/// Receives every recorded event, in record order. Sinks are non-owning
/// observers; they must not re-enter the tracer.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& e) = 0;
};

/// A sink that keeps every event (unbounded) — determinism regressions and
/// post-run exports that need more history than the ring retains.
class VectorSink : public Sink {
 public:
  void on_event(const Event& e) override { events_.push_back(e); }
  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

/// Cluster-level tracing configuration (wired through Cluster::Config and
/// harness::Scenario).
struct TraceOptions {
  bool enabled = false;
  /// Capacity in events of EACH per-node ring of the cluster's
  /// obs::ShardedTracer (a node's recent history is never evicted by
  /// another node's chatter); oldest events are overwritten when full.
  std::size_t ring_capacity = 8192;
};

/// A ring slice captured at the moment a violation was detected, keyed by
/// the offending update's timestamp. The streaming checkers pin these so a
/// later incident bundle does not depend on the ring still holding the
/// window — without pinning, a busy run can wrap the ring between violation
/// and rendering and the counter-example window silently comes back empty.
struct PinnedWindow {
  std::uint64_t ts_logical = 0;
  sim::NodeId ts_node = 0;
  std::vector<Event> events;  ///< slice_around() output at pin time.
};

/// Read-side view of a trace: what the dump/export/pinning consumers need,
/// independent of whether events live in one global ring or per-node
/// shards. record() is NOT part of the interface — recording stays a
/// non-virtual call on a concrete Tracer (the hot path).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Attach a sink (non-owning; must outlive the source's last record). On
  /// a ShardedTracer the sink observes the global interleaved record order
  /// — shard dispatch is synchronous, so order is preserved.
  virtual void add_sink(Sink* sink) = 0;

  /// Events recorded over the source's lifetime (>= ring_size()).
  virtual std::uint64_t recorded() const = 0;
  /// Events that fell off the ring(s) (recorded - retained).
  virtual std::uint64_t evicted() const = 0;
  /// Per-type lifetime counts, indexed by EventType.
  virtual std::vector<std::uint64_t> type_counts() const = 0;
  /// Events currently retained.
  virtual std::size_t ring_size() const = 0;
  /// Retained events in global record order (merged across shards when
  /// sharded).
  virtual std::vector<Event> ring() const = 0;
  /// Retained events involving update (ts_logical, ts_node), each with up
  /// to `context` neighboring events either side — the counter-example
  /// window the checker dump prints.
  virtual std::vector<Event> slice_around(std::uint64_t ts_logical,
                                          sim::NodeId ts_node,
                                          std::size_t context = 6) const = 0;
};

/// slice_around's windowing over an explicit event vector (shared by both
/// TraceSource implementations): every event of update (ts_logical,
/// ts_node) plus `context` neighbors either side, overlapping windows
/// coalesced, record order kept, each event appearing once.
std::vector<Event> slice_window(const std::vector<Event>& events,
                                std::uint64_t ts_logical, sim::NodeId ts_node,
                                std::size_t context);

class Tracer : public TraceSource {
 public:
  explicit Tracer(std::size_t ring_capacity = 8192);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record one event: ring + all sinks. O(1) amortized. Non-virtual — the
  /// per-event hot path never pays vtable dispatch.
  void record(const Event& e);

  /// Convenience overload building the Event in place.
  void record(EventType type, double time, sim::NodeId node,
              std::uint64_t ts_logical = 0, sim::NodeId ts_node = 0,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    record(Event{type, time, node, ts_logical, ts_node, a, b});
  }

  void add_sink(Sink* sink) override { sinks_.push_back(sink); }

  std::uint64_t recorded() const override { return recorded_; }
  std::uint64_t evicted() const override {
    return recorded_ - static_cast<std::uint64_t>(ring_size());
  }
  std::vector<std::uint64_t> type_counts() const override {
    return type_counts_;
  }

  std::size_t ring_capacity() const { return capacity_; }
  std::size_t ring_size() const override { return full_ ? capacity_ : head_; }

  /// Ring contents, oldest first.
  std::vector<Event> ring() const override;

  std::vector<Event> slice_around(std::uint64_t ts_logical,
                                  sim::NodeId ts_node,
                                  std::size_t context = 6) const override;

  /// Arm sharded operation: every record also stamps `sequencer->fetch_add`
  /// into a ring parallel to the event ring. The counter is shared by all
  /// shards of one ShardedTracer, so the stamp is the event's position in
  /// the GLOBAL record order — what the deterministic merge sorts by. The
  /// counter is atomic (relaxed) so the threaded runtime's per-node shards
  /// can stamp concurrently — one writer per shard, one shared monotone
  /// counter; under the single-threaded simulator the values are exactly
  /// the sequence a plain increment produced.
  void set_sequencer(std::atomic<std::uint64_t>* sequencer);

  /// Global-order stamps parallel to ring(); empty when no sequencer set.
  std::vector<std::uint64_t> ring_seqs() const;

 private:
  std::size_t capacity_;
  std::vector<Event> buf_;
  std::vector<std::uint64_t> seq_buf_;  ///< parallel to buf_ (if sequenced)
  std::size_t head_ = 0;  ///< Next write position.
  bool full_ = false;
  std::uint64_t recorded_ = 0;
  std::vector<std::uint64_t> type_counts_;
  std::vector<Sink*> sinks_;
  std::atomic<std::uint64_t>* sequencer_ = nullptr;
};

/// Canonical line-oriented serialization of an event stream: one event per
/// line, "<name> t=<time> n=<node> ts=<logical>:<node> a=<a> b=<b>". Times
/// use shortest-round-trip formatting (std::to_chars), so the encoding is
/// exact: deserialize(serialize(x)) == x field-for-field. The determinism
/// regression compares these bytes across same-seed runs, and the
/// trace-diff tool exchanges streams through this format.
std::string serialize(const std::vector<Event>& events);

/// FNV-1a-64 hash of serialize(events): a stream's identity in one number,
/// for golden pins and bench rows that cannot carry the bytes themselves.
std::uint64_t digest(const std::vector<Event>& events);

/// Inverse of event_type_name. Returns true and sets `out` on a known
/// name; returns false (out untouched) otherwise.
bool event_type_from_name(std::string_view name, EventType& out);

/// Parse a serialize()d stream. Returns true and appends the parsed events
/// to `out` on success; returns false at the first malformed line (events
/// parsed before it remain appended, `error` — if non-null — gets the
/// 0-based line number).
bool deserialize(std::string_view text, std::vector<Event>& out,
                 std::size_t* error = nullptr);

}  // namespace obs
