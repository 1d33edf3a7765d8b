// Message-delay models for the simulated network.
//
// Section 1.3 of the paper splits its probabilistic claims into (1)
// conditional cost bounds parameterized by k and (2) "probability
// distribution information ... obtained by an independent analysis, using
// information such as delay characteristics of the message system". These
// delay models are that message system: the harness sweeps them to produce
// the empirical distribution of k used in experiment E9.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/rng.hpp"

namespace sim {

/// Simulated time, in seconds.
using Time = double;

/// Identifies a node in the simulated cluster.
using NodeId = std::uint32_t;

/// Interface for one-way message latency distributions.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  /// Draw one latency sample. Must be nonnegative.
  virtual Time sample(Rng& rng) const = 0;
  /// A bound b such that samples never exceed b, or +inf if unbounded.
  /// Used by the t-bounded-delay condition of paper section 3.2.
  virtual Time upper_bound() const = 0;
  /// Human-readable description for experiment tables.
  virtual std::string describe() const = 0;
};

/// Value-semantic handle so configuration structs can hold delay models
/// without owning raw pointers.
class Delay {
 public:
  Delay() : Delay(constant(0.0)) {}
  explicit Delay(std::shared_ptr<const DelayModel> model)
      : model_(std::move(model)) {}

  Time sample(Rng& rng) const { return model_->sample(rng); }
  Time upper_bound() const { return model_->upper_bound(); }
  std::string describe() const { return model_->describe(); }

  /// Always exactly `d`.
  static Delay constant(Time d);
  /// Uniform in [lo, hi].
  static Delay uniform(Time lo, Time hi);
  /// `base` plus an exponential tail with the given mean, optionally
  /// truncated at `cap` (cap <= 0 means untruncated).
  static Delay exponential(Time base, Time tail_mean, Time cap = 0.0);
  /// Log-normal latency, the classic long-tailed WAN model; `median` is the
  /// distribution median and `sigma` the shape parameter.
  static Delay lognormal(Time median, double sigma);
  /// Mixture: with probability p_slow draw from `slow`, else from `fast`.
  /// Models a flaky path that intermittently degrades.
  static Delay bimodal(Delay fast, Delay slow, double p_slow);

 private:
  std::shared_ptr<const DelayModel> model_;
};

}  // namespace sim
