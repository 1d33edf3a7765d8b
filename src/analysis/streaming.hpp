// Streaming online checkers: the post-hoc oracles, evaluated live.
//
// The post-hoc checkers (execution_checker.hpp, cost_bounds.hpp) assemble
// the whole execution after the run and replay it from scratch — O(history)
// state, violations reported only at the end. This module subscribes to the
// node pipeline through shard::StreamObserver and maintains just enough
// state to emit the SAME violations (byte-identical messages, same
// transaction indices) while the run is still going:
//
//  * A per-node SHADOW LOG of true updates mirrors each replica's merged
//    set. Because on_originate fires before any delivery of the new update,
//    the shadow state at decision time IS the oracle's apparent state
//    (fold of the true updates of the decision's prefix, in timestamp
//    order) — so condition (3) is checked right at origination, against
//    exactly what the post-hoc replay would reconstruct.
//  * A per-origin LEDGER of true updates, keyed by broadcast sequence
//    number, is what deliveries merge into the shadows. The wire payload is
//    never trusted: a Byzantine adversary can corrupt it in flight, and the
//    whole point of the untrusting checker is to notice (via the per-
//    delivery divergence check: node state vs clean shadow replay).
//  * A WATERMARK finalizes pending transactions into their global index.
//    Node n can never originate below max_logical_seen(n)+1 (its Lamport
//    clock dominates everything it merged — the checker recomputes this
//    bound itself rather than trusting engine clocks) nor below its oldest
//    serializable reservation; the min of those floors over all nodes is a
//    timestamp below which the transaction sequence is complete, so global
//    indices — and the index-bearing violation messages — are final.
//  * Theorem 5/7 checks fold each finalized true update into one running
//    actual state: cost deltas and invariant bounds fire per transaction,
//    O(1) state instead of the oracle's actual_states() vector.
//
// Conditions (1) and (2) cannot fire on engine-produced executions (the
// Lamport tick is strictly above everything merged, and finalization order
// equals the oracle's assembly order); instead of re-deriving index sets
// the checker keeps an order-violation guard counter that trips if any of
// those structural assumptions is ever observed broken.
//
// Memory is O(window): the watermark lag bounds pending transactions, and
// with Options::bounded_memory the ledgers prune below the slowest node's
// contiguous delivery point and shadows compact below each node's next-
// expected update (E23 asserts the bound). bounded_memory is only sound for
// rewind-free fault plans — amnesia/stale-disk restarts re-deliver history
// the pruning discards — so any rewind permanently disables pruning and the
// caller should leave it off for such plans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/messages.hpp"
#include "analysis/report.hpp"
#include "core/model.hpp"
#include "core/timestamp.hpp"
#include "obs/incident.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/node.hpp"
#include "shard/update_log.hpp"

namespace analysis {

template <core::Application App>
class StreamingChecker : public shard::StreamObserver<App> {
 public:
  using Request = typename App::Request;
  using State = typename App::State;
  using Update = typename App::Update;
  using Record = typename shard::Node<App>::Record;

  /// One theorem-5 check, mirroring check_theorem5's arguments.
  struct Theorem5Config {
    int constraint = 0;
    std::function<bool(const Request&, int)> preserves;
    std::function<double(int, std::size_t)> f;
  };
  /// One theorem-7 check with an explicit k, mirroring check_theorem7's
  /// hypothesis-verifying mode (the streaming checker cannot measure the
  /// run's max missing count before the run ends).
  struct Theorem7Config {
    int constraint = 0;
    std::function<bool(const Request&, int)> unsafe;
    std::function<double(int, std::size_t)> f;
    std::size_t k = 0;
  };

  struct Options {
    std::vector<Theorem5Config> theorem5;
    std::vector<Theorem7Config> theorem7;
    /// Prune ledgers/compact shadows to the delivery window. Only sound
    /// for rewind-free fault plans (see file comment); a rewind disables
    /// pruning for the rest of the run.
    bool bounded_memory = false;
    /// When set, a ring window around each violating update is pinned at
    /// detection time, so the incident bundle still has the
    /// counter-example context even after the ring wraps
    /// (obs::PinnedWindow).
    obs::TraceSource* tracer = nullptr;
  };

  static constexpr std::size_t kShadowCheckpointInterval = 32;
  /// Snapshot bound per shadow in bounded mode (unbounded mode keeps all).
  static constexpr std::size_t kShadowMaxCheckpoints = 8;
  /// Ring events pinned on each side of a violating update, and the most
  /// windows pinned per run.
  static constexpr std::size_t kPinContext = 6;
  static constexpr std::size_t kMaxPinnedWindows = 32;
  /// Divergence messages retained (events beyond it are only counted).
  static constexpr std::size_t kMaxDivergenceMessages = 16;
  /// Incident seeds retained (obs::IncidentSeed rows recorded at detection
  /// time, one per violation message — what analysis::build_incident_report
  /// assembles into forensic bundles). Seeds past the cap are only counted
  /// (checker.incident_seeds keeps the true total).
  static constexpr std::size_t kMaxIncidentSeeds = 32;

  explicit StreamingChecker(std::size_t num_nodes, Options opts = {})
      : opts_(std::move(opts)),
        actual_state_(App::initial()),
        prefix_report_(msg::kPrefixSubsequenceTitle),
        divergence_report_("streaming divergence") {
    for (std::size_t n = 0; n < num_nodes; ++n) {
      shadows_.emplace_back(kShadowCheckpointInterval,
                            opts_.bounded_memory ? kShadowMaxCheckpoints : 0);
    }
    reservations_.resize(num_nodes);
    max_logical_seen_.assign(num_nodes, 0);
    delivered_.assign(num_nodes, std::vector<DeliveredFromOrigin>(num_nodes));
    ledger_.resize(num_nodes);
    // The oracle's pre-loop checks run once up front: initial-state
    // well-formedness and theorem 7's reachable-state 0.
    if (!App::well_formed(actual_state_)) {
      prefix_report_.add_violation(msg::initial_ill_formed());
    }
    theorem5_reports_.reserve(opts_.theorem5.size());
    for (std::size_t c = 0; c < opts_.theorem5.size(); ++c) {
      theorem5_reports_.emplace_back(msg::kTheorem5Title);
    }
    theorem7_reports_.reserve(opts_.theorem7.size());
    for (const Theorem7Config& cfg : opts_.theorem7) {
      theorem7_reports_.emplace_back(msg::kTheorem7Title);
      t7_bounds_.push_back(cfg.f(cfg.constraint, cfg.k));
      const double c0 = App::cost(actual_state_, cfg.constraint);
      if (c0 > t7_bounds_.back() + 1e-9) {
        theorem7_reports_.back().add_violation(
            msg::theorem7_state(0, c0, cfg.k, t7_bounds_.back()));
      }
    }
  }

  // --- StreamObserver hooks ---------------------------------------------

  void on_originate(const Record& rec, std::uint64_t origin_seq,
                    sim::Time now) override {
    ++txs_ingested_;
    const core::NodeId n = rec.origin;
    max_logical_seen_[n] = std::max(max_logical_seen_[n], rec.ts.logical);
    shard::UpdateLog<App>& shadow = shadows_[n];

    PendingTx p;
    p.request = rec.request;
    p.update = rec.update;
    p.originated_at = now;
    if (rec.serializable) {
      // The decision saw exactly the merged entries below its reservation.
      p.prefix_size = shadow.folded_count() + shadow.count_before(rec.ts);
      evaluate_condition3(rec, shadow.state_before(rec.ts), p);
      // Decided: release the reservation's watermark hold.
      auto& rs = reservations_[n];
      if (!rs.empty() && rs.front() == rec.ts) {
        rs.pop_front();
      } else {
        ++order_violations_;
        std::erase(rs, rec.ts);
      }
    } else {
      p.prefix_size = shadow.total_merged();
      evaluate_condition3(rec, shadow.state(), p);
    }
    // Ledger: the TRUE update, keyed (origin, 1-based seq). Deliveries
    // merge from here, never from the (corruptible) wire payload.
    OriginLedger& lg = ledger_[n];
    if (origin_seq != lg.base + lg.entries.size() + 1) ++order_violations_;
    lg.entries.push_back(LedgerEntry{rec.ts, rec.update});
    pending_.emplace(rec.ts, std::move(p));
    note_footprint();
    try_finalize(now);
  }

  void on_deliver(core::NodeId at, core::NodeId origin,
                  std::uint64_t origin_seq, const core::Timestamp& ts,
                  const State& state, sim::Time now) override {
    ++deliveries_;
    max_logical_seen_[at] = std::max(max_logical_seen_[at], ts.logical);
    const LedgerEntry* e = ledger_lookup(origin, origin_seq);
    if (e == nullptr || !(e->ts == ts)) {
      // Unknown seq or a wire whose timestamp contradicts the origin's
      // record: nothing trustworthy to merge.
      ++order_violations_;
      return;
    }
    shard::UpdateLog<App>& shadow = shadows_[at];
    if (shadow.contains(ts)) {
      // A duplicate got past the broadcast dedup — structural breakage.
      ++order_violations_;
      return;
    }
    shadow.insert({e->ts, e->update});
    DeliveredFromOrigin& d = delivered_[at][origin];
    if (origin_seq == d.contig + 1) {
      ++d.contig;
      while (!d.extras.empty() && *d.extras.begin() == d.contig + 1) {
        d.extras.erase(d.extras.begin());
        ++d.contig;
      }
    } else if (origin_seq > d.contig) {
      d.extras.insert(origin_seq);
    }  // else: re-delivery after a rewind; already counted.
    // The untrusting core: the replica's post-merge state must equal the
    // clean replay of the true updates. A corrupted payload — or any merge
    // bug — shows up here, at the delivery that introduced it.
    if (!(state == shadow.state())) {
      ++divergence_events_;
      std::ostringstream os;
      os << "node " << at
         << " state diverges from clean replay after merging ts "
         << ts.logical << ":" << ts.node;
      if (divergence_report_.violations().size() < kMaxDivergenceMessages) {
        divergence_report_.add_violation(os.str());
      }
      note_incident(os.str(), CheckReport::kNoTx, ts, now);
      pin_window(ts);
    }
    if (opts_.bounded_memory && !rewound_) compact(at);
    note_footprint();
    try_finalize(now);
  }

  void on_reserve(core::NodeId at, const core::Timestamp& reserved_ts) override {
    reservations_[at].push_back(reserved_ts);
  }

  void on_crash(core::NodeId at, sim::Time) override {
    // Reservations are volatile; their watermark holds die with the node.
    reservations_[at].clear();
  }

  void on_restart(core::NodeId at, sim::RecoveryMode mode, std::size_t keep_n,
                  sim::Time) override {
    if (mode == sim::RecoveryMode::kDurable) return;  // log survived intact
    // History will be re-delivered; retention lower bounds are no longer
    // monotone, so pruning/compaction stops for the rest of the run.
    rewound_ = true;
    if (mode == sim::RecoveryMode::kAmnesia) {
      shadows_[at].reset_to_initial();
      for (DeliveredFromOrigin& d : delivered_[at]) d = DeliveredFromOrigin{};
    } else {  // stale disk: node kept its first keep_n merged entries
      const std::size_t folded = shadows_[at].folded_count();
      if (keep_n >= folded) {
        shadows_[at].truncate_suffix(keep_n - folded);
      } else {
        ++order_violations_;  // node rewound below the cluster-stable prefix
      }
    }
  }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    namespace mn = obs::metric_names;
    reg.add_counter(mn::kCheckerTxsIngested, txs_ingested_);
    reg.add_counter(mn::kCheckerTxsFinalized, txs_finalized_);
    reg.add_counter(mn::kCheckerDeliveries, deliveries_);
    reg.add_counter(mn::kCheckerViolations, violation_count());
    reg.add_counter(mn::kCheckerDivergenceEvents, divergence_events_);
    reg.add_counter(mn::kCheckerOrderViolations, order_violations_);
    reg.add_counter(mn::kCheckerPinnedWindows, pinned_.size());
    reg.add_counter(mn::kCheckerIncidentSeeds, incident_seeds_total_);
    reg.add_counter(mn::kCheckerPendingNow, pending_.size());
    reg.add_counter(mn::kCheckerPeakPending, peak_pending_);
    reg.add_counter(mn::kCheckerPeakLedgerEntries, peak_ledger_);
    reg.add_counter(mn::kCheckerPeakShadowEntries, peak_shadow_);
    reg.histogram(mn::kCheckerFinalizeLag).merge_from(finalize_lag_);
    reg.histogram(mn::kCheckerDetectionLatency).merge_from(detection_latency_);
  }

  // --- results ----------------------------------------------------------

  /// Force-finalize everything still pending (call once, after the run —
  /// the sequence is complete, so every index is final).
  void finish(sim::Time now) {
    while (!pending_.empty()) {
      auto it = pending_.begin();
      finalize_one(it->first, it->second, now);
      pending_.erase(it);
    }
  }

  /// Same title and messages as check_prefix_subsequence_condition.
  const CheckReport& prefix_report() const { return prefix_report_; }
  /// One report per Options::theorem5 entry, as check_theorem5 yields.
  const std::vector<CheckReport>& theorem5_reports() const {
    return theorem5_reports_;
  }
  /// One report per Options::theorem7 entry, as check_theorem7 yields.
  const std::vector<CheckReport>& theorem7_reports() const {
    return theorem7_reports_;
  }
  /// Streaming-only: per-delivery replica-vs-replay divergences. The
  /// post-hoc oracles have no analogue (they never see replica states), so
  /// differential comparisons must exclude this report.
  const CheckReport& divergence_report() const { return divergence_report_; }
  std::uint64_t divergence_events() const { return divergence_events_; }
  std::uint64_t order_violations() const { return order_violations_; }
  std::size_t txs_finalized() const { return txs_finalized_; }

  /// Violation messages across the oracle-equivalent reports (divergence
  /// excluded).
  std::size_t violation_count() const {
    std::size_t n = prefix_report_.violations().size();
    for (const CheckReport& r : theorem5_reports_) n += r.violations().size();
    for (const CheckReport& r : theorem7_reports_) n += r.violations().size();
    return n;
  }

  /// Clean-replay state for node n's merged set — what the replica's state
  /// SHOULD be. Tests use it to prove an applied corruption was
  /// effect-masked (substituted update folded to the same state).
  const State& shadow_state(core::NodeId n) const {
    return shadows_[n].state();
  }

  /// Ring windows pinned at detection time (for the incident bundle,
  /// analysis::build_incident_report).
  const std::vector<obs::PinnedWindow>& pinned_windows() const {
    return pinned_;
  }

  /// Incident seeds recorded at detection time — one per violation message
  /// (divergence events included), each carrying the offending update's
  /// timestamp and the simulated detection instant. The raw material
  /// analysis::build_incident_report turns into epoch-attributed bundles.
  const std::vector<obs::IncidentSeed>& incident_seeds() const {
    return seeds_;
  }
  /// Seeds recorded over the run's lifetime, including past the cap.
  std::uint64_t incident_seeds_total() const { return incident_seeds_total_; }

  /// Current retained footprint (the E23 O(window) assertion target).
  std::size_t retained_entries() const {
    std::size_t n = pending_.size();
    for (const OriginLedger& l : ledger_) n += l.entries.size();
    for (const shard::UpdateLog<App>& s : shadows_) n += s.size();
    return n;
  }

 private:
  struct LedgerEntry {
    core::Timestamp ts;
    Update update;
  };
  struct OriginLedger {
    std::uint64_t base = 0;  ///< Seqs pruned off the front.
    std::deque<LedgerEntry> entries;
  };
  struct DeliveredFromOrigin {
    std::uint64_t contig = 0;  ///< Longest contiguous delivered seq prefix.
    std::set<std::uint64_t> extras;  ///< Out-of-order seqs past the prefix.
  };
  struct PendingTx {
    Request request;
    Update update;
    std::size_t prefix_size = 0;
    bool apparent_ill_formed = false;
    bool update_mismatch = false;
    bool actions_mismatch = false;
    sim::Time originated_at = 0.0;
  };

  const LedgerEntry* ledger_lookup(core::NodeId origin,
                                   std::uint64_t seq) const {
    const OriginLedger& lg = ledger_[origin];
    if (seq <= lg.base || seq > lg.base + lg.entries.size()) return nullptr;
    return &lg.entries[seq - 1 - lg.base];
  }

  /// Condition (3) at decision time: `view` is the shadow's clean apparent
  /// state — identical to the oracle's apparent_state_before, because the
  /// shadow's merged set is exactly the decision's prefix subsequence.
  void evaluate_condition3(const Record& rec, const State& view,
                           PendingTx& p) const {
    if (!App::well_formed(view)) p.apparent_ill_formed = true;
    const core::DecisionResult<Update> redo = App::decide(rec.request, view);
    if (!(redo.update == rec.update)) p.update_mismatch = true;
    if (redo.external_actions != rec.external_actions) {
      p.actions_mismatch = true;
    }
  }

  /// Finalization floor for node n: it can never originate a transaction
  /// below this timestamp. Computed from observed traffic only.
  core::Timestamp watermark() const {
    core::Timestamp w{std::numeric_limits<std::uint64_t>::max(),
                      std::numeric_limits<core::NodeId>::max()};
    for (core::NodeId n = 0; n < shadows_.size(); ++n) {
      const core::Timestamp floor =
          reservations_[n].empty()
              ? core::Timestamp{max_logical_seen_[n] + 1, n}
              : reservations_[n].front();
      w = std::min(w, floor);
    }
    return w;
  }

  void try_finalize(sim::Time now) {
    const core::Timestamp w = watermark();
    while (!pending_.empty() && pending_.begin()->first < w) {
      auto it = pending_.begin();
      finalize_one(it->first, it->second, now);
      pending_.erase(it);
    }
  }

  void finalize_one(const core::Timestamp& ts, PendingTx& p, sim::Time now) {
    if (finalized_any_ && !(last_finalized_ < ts)) ++order_violations_;
    last_finalized_ = ts;
    finalized_any_ = true;
    const std::size_t i = next_index_++;
    bool violated = false;
    if (p.apparent_ill_formed) {
      std::string m = msg::apparent_ill_formed(i);
      note_incident(m, i, ts, now);
      prefix_report_.add_violation(std::move(m), i);
      violated = true;
    }
    if (p.update_mismatch) {
      std::string m = msg::update_mismatch(i);
      note_incident(m, i, ts, now);
      prefix_report_.add_violation(std::move(m), i);
      violated = true;
    }
    if (p.actions_mismatch) {
      std::string m = msg::actions_mismatch(i);
      note_incident(m, i, ts, now);
      prefix_report_.add_violation(std::move(m), i);
      violated = true;
    }
    std::size_t k = 0;
    if (i >= p.prefix_size) {
      k = i - p.prefix_size;
    } else {
      ++order_violations_;  // prefix larger than the predecessors
    }
    // Theorem 5 "before" costs precede the apply; "after" costs follow it.
    t5_before_.resize(opts_.theorem5.size());
    for (std::size_t c = 0; c < opts_.theorem5.size(); ++c) {
      const Theorem5Config& cfg = opts_.theorem5[c];
      if (cfg.preserves(p.request, cfg.constraint)) {
        t5_before_[c] = App::cost(actual_state_, cfg.constraint);
      }
    }
    App::apply(p.update, actual_state_);
    if (!App::well_formed(actual_state_)) {
      std::string m = msg::actual_ill_formed(i);
      note_incident(m, i, ts, now);
      prefix_report_.add_violation(std::move(m), i);
      violated = true;
    }
    for (std::size_t c = 0; c < opts_.theorem5.size(); ++c) {
      const Theorem5Config& cfg = opts_.theorem5[c];
      if (!cfg.preserves(p.request, cfg.constraint)) continue;
      const double after = App::cost(actual_state_, cfg.constraint);
      const double bound = cfg.f(cfg.constraint, k);
      if (after > t5_before_[c] + 1e-9 && after > bound + 1e-9) {
        std::string m = msg::theorem5_step(i, k, t5_before_[c], after, bound);
        note_incident(m, i, ts, now);
        theorem5_reports_[c].add_violation(std::move(m));
        violated = true;
      }
    }
    for (std::size_t c = 0; c < opts_.theorem7.size(); ++c) {
      const Theorem7Config& cfg = opts_.theorem7[c];
      if (cfg.unsafe(p.request, cfg.constraint) && k > cfg.k) {
        std::string m = msg::theorem7_hypothesis(i, k, cfg.k);
        note_incident(m, i, ts, now);
        theorem7_reports_[c].add_violation(std::move(m));
        violated = true;
      }
      const double c_after = App::cost(actual_state_, cfg.constraint);
      if (c_after > t7_bounds_[c] + 1e-9) {
        std::string m = msg::theorem7_state(i + 1, c_after, cfg.k, t7_bounds_[c]);
        note_incident(m, i, ts, now);
        theorem7_reports_[c].add_violation(std::move(m));
        violated = true;
      }
    }
    ++txs_finalized_;
    finalize_lag_.add(now - p.originated_at);
    if (violated) {
      detection_latency_.add(now - p.originated_at);
      pin_window(ts);
    }
  }

  /// One violation message -> one incident seed, stamped with the update's
  /// timestamp and the detection instant (the epoch-of-detection half of
  /// the attribution story; the admission half is derived later from the
  /// trace). `tx` is CheckReport::kNoTx for divergence events, whose
  /// global index is not a finalized transaction index.
  void note_incident(const std::string& message, std::size_t tx,
                     const core::Timestamp& ts, sim::Time now) {
    ++incident_seeds_total_;
    if (seeds_.size() >= kMaxIncidentSeeds) return;
    obs::IncidentSeed s;
    s.message = message;
    s.tx_index = tx;
    s.ts_logical = ts.logical;
    s.ts_node = ts.node;
    s.detected_at = now;
    seeds_.push_back(std::move(s));
  }

  void pin_window(const core::Timestamp& ts) {
    if (opts_.tracer == nullptr || pinned_.size() >= kMaxPinnedWindows) return;
    obs::PinnedWindow w;
    w.ts_logical = ts.logical;
    w.ts_node = ts.node;
    w.events =
        opts_.tracer->slice_around(ts.logical, ts.node, kPinContext);
    pinned_.push_back(std::move(w));
  }

  /// Bounded-memory maintenance after a delivery at `at`: fold the shadow
  /// below everything that can still arrive there, and drop ledger entries
  /// every node has delivered.
  void compact(core::NodeId at) {
    core::Timestamp cut{std::numeric_limits<std::uint64_t>::max(),
                        std::numeric_limits<core::NodeId>::max()};
    for (core::NodeId o = 0; o < shadows_.size(); ++o) {
      const std::uint64_t next = delivered_[at][o].contig + 1;
      const LedgerEntry* e = ledger_lookup(o, next);
      // Not yet originated: the origin's clock dominates everything it has
      // seen, so its next timestamp is at least this.
      const core::Timestamp t =
          e != nullptr ? e->ts : core::Timestamp{max_logical_seen_[o] + 1, o};
      cut = std::min(cut, t);
    }
    // state_before(reserved_ts) must stay computable for this node's
    // pending reservations (mirrors the node's own [SL] discard rule).
    if (!reservations_[at].empty()) {
      cut = std::min(cut, reservations_[at].front());
    }
    shadows_[at].compact_before(cut);
    for (core::NodeId o = 0; o < shadows_.size(); ++o) {
      std::uint64_t min_contig = std::numeric_limits<std::uint64_t>::max();
      for (core::NodeId n = 0; n < shadows_.size(); ++n) {
        min_contig = std::min(min_contig, delivered_[n][o].contig);
      }
      OriginLedger& lg = ledger_[o];
      while (lg.base < min_contig && !lg.entries.empty()) {
        lg.entries.pop_front();
        ++lg.base;
      }
    }
  }

  void note_footprint() {
    peak_pending_ = std::max(peak_pending_, pending_.size());
    std::size_t lg = 0;
    for (const OriginLedger& l : ledger_) lg += l.entries.size();
    peak_ledger_ = std::max(peak_ledger_, lg);
    std::size_t sh = 0;
    for (const shard::UpdateLog<App>& s : shadows_) sh += s.size();
    peak_shadow_ = std::max(peak_shadow_, sh);
  }

  Options opts_;
  std::vector<shard::UpdateLog<App>> shadows_;  ///< Clean replay per node.
  std::vector<OriginLedger> ledger_;            ///< True updates per origin.
  std::vector<std::vector<DeliveredFromOrigin>> delivered_;  ///< [node][origin]
  std::vector<std::deque<core::Timestamp>> reservations_;    ///< Per node.
  std::vector<std::uint64_t> max_logical_seen_;              ///< Per node.
  std::map<core::Timestamp, PendingTx> pending_;
  State actual_state_;  ///< Running fold of finalized true updates.
  std::size_t next_index_ = 0;
  core::Timestamp last_finalized_{};
  bool finalized_any_ = false;
  bool rewound_ = false;

  CheckReport prefix_report_;
  std::vector<CheckReport> theorem5_reports_;
  std::vector<CheckReport> theorem7_reports_;
  std::vector<double> t7_bounds_;
  CheckReport divergence_report_;
  std::vector<obs::PinnedWindow> pinned_;
  std::vector<obs::IncidentSeed> seeds_;
  std::uint64_t incident_seeds_total_ = 0;
  std::vector<double> t5_before_;

  std::uint64_t txs_ingested_ = 0;
  std::size_t txs_finalized_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t divergence_events_ = 0;
  std::uint64_t order_violations_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t peak_ledger_ = 0;
  std::size_t peak_shadow_ = 0;
  obs::Histogram finalize_lag_ = obs::Histogram::latency();
  obs::Histogram detection_latency_ = obs::Histogram::latency();
};

}  // namespace analysis
