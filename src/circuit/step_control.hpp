// Local-truncation-error step control and the breakpoint registry for the
// adaptive transient engine.
//
// DRAM column waveforms are long flat holds punctuated by sharp
// precharge/sense edges.  The controller makes the holds nearly free: a
// polynomial predictor extrapolates the last accepted solutions, the
// predictor-vs-corrector difference estimates the local truncation error,
// and the step grows geometrically while the estimate stays inside
// tolerance.  The registry pins accepted steps exactly onto waveform
// corners so no command edge is ever integrated across.
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace dramstress::circuit {

struct StepControlOptions {
  double lte_tol = 5e-4;    // relative LTE tolerance on node voltages
  double abs_tol = 1e-4;    // V, absolute error floor
  double trtol = 7.0;       // LTE overestimation divisor (SPICE TRTOL)
  double dt_min = 1e-13;    // s
  double dt_max = 0.0;      // s; 0 = no upper cap
  double grow_limit = 3.0;  // max dt growth per accepted step
  double shrink_limit = 0.1;  // max dt shrink per rejection
  double safety = 0.9;
};

/// Sorted registry of times the integrator must land on exactly.
class BreakpointRegistry {
public:
  /// Register landing times (any order; duplicates collapse).
  void add_all(const std::vector<double>& ts);

  /// First breakpoint strictly after `t`, or +infinity if none.
  double next_after(double t) const;

private:
  std::vector<double> times_;  // sorted, unique
};

/// Proposes, grows and shrinks the transient step from LTE estimates.
///
/// Error metric: with fewer than two accepted solutions the predictor is
/// undefined and any converged step is accepted (the caller starts from a
/// conservative dt); afterwards the predictor is the linear extrapolation
/// of the last two accepted states and
///   err = max_i |x_i - pred_i| / (lte_tol * max(|x_i|, |pred_i|) + abs_tol)
///         / trtol
/// over the first `num_error_vars` unknowns (node voltages; source branch
/// currents follow the voltages and are excluded, as in SPICE practice).
/// err <= 1 accepts; the next dt scales with err^(-1/2) (backward Euler's
/// LTE is O(dt^2) against a first-order predictor).
class StepController {
public:
  StepController(StepControlOptions opt, double dt_init, size_t num_error_vars);

  double dt() const { return dt_; }
  const StepControlOptions& options() const { return opt_; }

  /// Install the state at the start of the transient (t0).
  void seed(double t, const numeric::Vector& x);

  /// Weighted LTE norm of a candidate solution at t_new (see class docs).
  double error_norm(double t_new, const numeric::Vector& x_new) const;

  /// Predictor value (linear extrapolation) as a Newton warm start; returns
  /// false (and leaves `out` untouched) with fewer than two history points.
  bool predict(double t_new, numeric::Vector& out) const;

  /// Commit an accepted solution and grow/shrink dt from its error norm.
  void accept(double t, const numeric::Vector& x, double err);

  /// Shrink dt after an LTE rejection (err > 1).
  void reject(double err);

  /// Halve dt after a Newton convergence failure.
  void halve();

  /// Replace the current proposal outright (phase changes reset the step).
  void reset(double dt) { dt_ = clamped(dt); }

  /// Clamp the current proposal (e.g. after landing on a breakpoint, where
  /// a waveform edge follows and large steps would only be rejected).
  void clamp_to(double dt_cap);

  /// True once dt has bottomed out at dt_min (the step cannot improve).
  bool at_dt_min() const;

private:
  double clamped(double dt) const;

  StepControlOptions opt_;
  double dt_;
  size_t num_error_vars_;
  // Last two accepted states, most recent last.
  double t_hist_[2] = {0.0, 0.0};
  numeric::Vector x_hist_[2];
  int hist_count_ = 0;
};

}  // namespace dramstress::circuit
