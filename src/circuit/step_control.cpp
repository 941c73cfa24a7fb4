#include "circuit/step_control.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace dramstress::circuit {

// ------------------------------------------------------ BreakpointRegistry

void BreakpointRegistry::add_all(const std::vector<double>& ts) {
  times_.insert(times_.end(), ts.begin(), ts.end());
  std::sort(times_.begin(), times_.end());
  times_.erase(std::unique(times_.begin(), times_.end()), times_.end());
}

double BreakpointRegistry::next_after(double t) const {
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  return it == times_.end() ? std::numeric_limits<double>::infinity() : *it;
}

// --------------------------------------------------------- StepController

StepController::StepController(StepControlOptions opt, double dt_init,
                               size_t num_error_vars)
    : opt_(opt), num_error_vars_(num_error_vars) {
  require(opt_.dt_min > 0.0, "StepController: dt_min must be positive");
  require(opt_.lte_tol > 0.0, "StepController: lte_tol must be positive");
  dt_ = clamped(dt_init);
}

double StepController::clamped(double dt) const {
  if (opt_.dt_max > 0.0) dt = std::min(dt, opt_.dt_max);
  return std::max(dt, opt_.dt_min);
}

void StepController::seed(double t, const numeric::Vector& x) {
  t_hist_[1] = t;
  x_hist_[1] = x;
  hist_count_ = 1;
}

bool StepController::predict(double t_new, numeric::Vector& out) const {
  if (hist_count_ < 2) return false;
  const double span = t_hist_[1] - t_hist_[0];
  const double frac = (t_new - t_hist_[1]) / span;
  out.resize(x_hist_[1].size());
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = x_hist_[1][i] + frac * (x_hist_[1][i] - x_hist_[0][i]);
  return true;
}

double StepController::error_norm(double t_new,
                                  const numeric::Vector& x_new) const {
  if (hist_count_ < 2) return 0.0;  // no predictor yet: accept
  const double span = t_hist_[1] - t_hist_[0];
  const double frac = (t_new - t_hist_[1]) / span;
  double err = 0.0;
  const size_t n = std::min(num_error_vars_, x_new.size());
  for (size_t i = 0; i < n; ++i) {
    const double pred =
        x_hist_[1][i] + frac * (x_hist_[1][i] - x_hist_[0][i]);
    const double tol =
        opt_.lte_tol * std::max(std::fabs(x_new[i]), std::fabs(pred)) +
        opt_.abs_tol;
    err = std::max(err, std::fabs(x_new[i] - pred) / tol);
  }
  return err / opt_.trtol;
}

void StepController::accept(double t, const numeric::Vector& x, double err) {
  t_hist_[0] = t_hist_[1];
  x_hist_[0] = x_hist_[1];
  t_hist_[1] = t;
  x_hist_[1] = x;
  if (hist_count_ < 2) ++hist_count_;

  double factor = opt_.grow_limit;
  if (err > 0.0) factor = opt_.safety / std::sqrt(err);
  factor = std::clamp(factor, opt_.shrink_limit, opt_.grow_limit);
  dt_ = clamped(dt_ * factor);
}

void StepController::reject(double err) {
  double factor = 0.5;
  if (err > 0.0)
    factor = std::clamp(opt_.safety / std::sqrt(err), opt_.shrink_limit, 0.5);
  dt_ = clamped(dt_ * factor);
}

void StepController::halve() { dt_ = clamped(0.5 * dt_); }

void StepController::clamp_to(double dt_cap) {
  dt_ = clamped(std::min(dt_, dt_cap));
}

bool StepController::at_dt_min() const {
  return dt_ <= opt_.dt_min * (1.0 + 1e-12);
}

}  // namespace dramstress::circuit
