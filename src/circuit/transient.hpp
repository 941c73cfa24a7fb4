// Fixed-step implicit transient analysis with UIC start: the scalar
// reference engine.
//
// DRAM operation sequences are rigidly clocked, so a fixed step per phase
// keeps sweeps deterministic and comparable across stress conditions (the
// ablation bench quantifies BR sensitivity to the step size).  This engine
// serves `--no-adaptive`, minispice and the AdaptiveAccuracy gate; the
// production engine -- LTE-controlled adaptive stepping -- is
// EnsembleTransient (circuit/ensemble_transient.hpp), which runs single
// simulations as width-1 lanes.  Backward Euler is the default method: its
// numerical damping is what we want for the regenerative sense-amp latch;
// trapezoidal integration is available for accuracy comparisons.  Steps
// that fail to converge are retried with a halved local step.
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"

namespace dramstress::circuit {

enum class Integrator { BackwardEuler, Trapezoidal };

/// Options of both transient engines: TransientSim (fixed step) reads the
/// first block, EnsembleTransient (adaptive) the first and the second.
struct TransientOptions {
  double dt = 0.1e-9;          // s; fixed step, and the adaptive initial step
  Integrator integrator = Integrator::BackwardEuler;
  double temperature = 300.15;  // K
  NewtonOptions newton;
  int max_step_halvings = 8;   // local retries on Newton failure (fixed)
  int record_stride = 1;       // record every k-th accepted step (fixed)

  // --- adaptive (LTE-controlled) stepping: EnsembleTransient -------------
  double lte_tol = 5e-4;       // relative LTE tolerance on node voltages
  double dt_min = 1e-13;       // s, smallest adaptive step
  double dt_max = 0.0;         // s, largest adaptive step; 0 = uncapped
  /// Chord Newton within each step's solve: keep the first iteration's
  /// factorization while the residual keeps halving.
  bool reuse_jacobian = true;
};

/// Recorded waveforms.
struct Trace {
  std::vector<double> time;
  std::vector<std::string> names;
  std::vector<std::vector<double>> samples;  // samples[probe][k]

  /// Value of probe `name` at time t, linearly interpolated between the
  /// two bracketing samples (clamped outside the recorded range).  With
  /// adaptive stepping the sample spacing is not uniform, so
  /// nearest-sample snapping would bias threshold measurements.
  double at(const std::string& name, double t) const;
  /// Same, by probe index -- resolve the name once with probe_index() and
  /// use this overload in bisection loops.
  double at(size_t probe, double t) const;
  /// Last recorded value of probe `name`.
  double back(const std::string& name) const;
  double back(size_t probe) const;
  size_t probe_index(const std::string& name) const;
};

class TransientSim {
public:
  TransientSim(MnaSystem& sys, TransientOptions options);

  /// Set the initial voltage of a node (UIC).  Must be called before the
  /// first run().  Unspecified nodes start at 0 V.
  void set_initial_condition(NodeId node, double volts);

  /// Record this node every accepted step under `name`.
  void add_probe(const std::string& name, NodeId node);

  /// Advance to absolute time t_end (must exceed the current time).
  /// Throws ConvergenceError if a step fails even after halvings.
  void run(double t_end);

  /// Change the step size for subsequent run() calls (e.g. long retention
  /// "del" phases integrate with a much coarser step).
  void set_dt(double dt);

  double voltage(NodeId node) const { return MnaSystem::voltage(x_, node); }
  const Trace& trace() const { return trace_; }
  /// Accepted steps so far (halved retries count each half).
  long accepted_steps() const { return accepted_steps_; }

private:
  void ensure_started();
  /// One implicit step of size dt ending at time_ + dt; recursion depth
  /// tracks halvings.
  void step(double dt, int depth);
  void record();

  MnaSystem* sys_;
  TransientOptions opt_;
  numeric::Vector x_;
  double time_ = 0.0;
  bool started_ = false;
  bool first_step_done_ = false;
  int steps_since_record_ = 0;
  long accepted_steps_ = 0;
  std::vector<NodeId> probe_nodes_;
  Trace trace_;
};

}  // namespace dramstress::circuit
