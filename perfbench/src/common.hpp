// Shared plumbing for the benchmark driver: command line, clocks, order
// statistics, the result line, and the traced run's span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// What timing an empty region reads (two back-to-back clock reads);
/// measured once at start-up by calibrate_clock().
inline double g_clock_overhead_s = 0.0;
void calibrate_clock();
/// seconds_since minus the clock's own cost: for regions short enough that
/// the two reads are a visible part of what they time.
inline double region_s(Clock::time_point a) {
  const double d = seconds_since(a) - g_clock_overhead_s;
  return d > 0.0 ? d : 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget: instances repeat until it is spent (at least
  /// kMinInstances of them).
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every instance size; 1 is the benchmark's own setting.
  double scale = 1.0;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/perfbench-trace";
};

/// Fewest instances a run measures, whatever its budget, so every median is
/// taken over at least this many values.
constexpr int kMinInstances = 3;
/// A traced run alternates plain and traced instances, at least this many
/// pairs of them.
constexpr int kMinTracedPairs = 2;

/// Nearest-rank percentile, q in [0, 1]. Sorts a copy.
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// The run's verdict and figures. Printed as the last stdout line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record failed checks; `txs` transactions (at least one) are charged.
  void fail(const std::string& what, std::uint64_t txs);
  void fail(const std::vector<std::string>& what, std::uint64_t txs);
  void attempted(std::uint64_t n) { attempted_ += n; }
  bool correct() const { return checks_failed_.empty(); }
  /// failed / attempted, the verdict folded into one number.
  double fail_frac() const;
  void print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> checks_failed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span log for the traced run: one row per call into a layer,
/// written out once the run ends. Times are seconds since the log's epoch.
/// Frequent layers keep their first kMaxSpansPerLayer spans; their counts
/// and times cover every call regardless.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpansPerLayer = 20000;
  static constexpr std::int64_t kNoParent = -1;

  SpanLog() : epoch_(Clock::now()) {}

  double now() const { return seconds_since(epoch_); }
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  /// Open a span; returns its id (or kNoParent when the layer's cap is
  /// reached — closing that id is a no-op).
  std::int64_t open(const char* name, std::int64_t parent,
                    std::uint64_t tx_origin = 0, std::uint64_t tx_seq = 0);
  void close(std::int64_t id);
  /// Record a span whose bounds are already known.
  void add(const char* name, std::int64_t parent, double start, double end,
           std::uint64_t tx_origin = 0, std::uint64_t tx_seq = 0);

  /// Tab-separated: id, parent, name, start_s, end_s, tx_origin, tx_seq.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t parent;
    double start;
    double end;
    std::uint64_t tx_origin;
    std::uint64_t tx_seq;
  };
  bool admit(const char* name);

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  /// Spans kept per layer name (names are string literals).
  std::map<const char*, std::size_t> per_layer_;
};

}  // namespace perfbench
