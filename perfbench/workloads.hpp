// The workloads (README.md, "Workloads").  Each runs its set-up and its
// measured phase once per call and fills a Pass.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// One execution of a workload.  A traced run executes the workload twice:
/// once untraced for the overhead baseline, once traced.
struct Pass {
  bool traced = false;
  double setup_s = 0;  // median of the workload's set-up repetitions
  Phase measured;      // first op issued .. last result checked
  long attempted = 0;
  long failed = 0;
  long probe_sessions = 0;  // of `attempted`, the service probe's sessions
  ObsWindow window;    // the program's metrics over the measured phase
  ObsWindow probe;     // ... over the service probe (traced table1 only)
  /// Workload-specific per-layer rows (traced runs only print them).
  std::map<std::string, std::pair<double, std::string>> layer;
};

/// Repetitions of a sub-millisecond set-up; setup_s is their median.
constexpr int kSetupReps = 25;

void run_fig2(const Args& args, Pass* pass);
void run_table1(const Args& args, Pass* pass);

/// Traced table1_campaign only: warm-daemon sessions over the campaign's
/// cache, `tokens` × `vdds` being the units it computed.
void probe_service(const Args& args, const std::string& cache_dir,
                   const std::vector<std::string>& tokens,
                   const std::vector<double>& vdds, Pass* pass);

/// Reference emitters (--emit-reference): print the JSON that
/// perfbench/ref/<workload>.json holds.
void emit_fig2_reference();
void emit_table1_reference();

}  // namespace perfbench
