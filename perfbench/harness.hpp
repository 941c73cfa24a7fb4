// Shared plumbing of the benchmark: arguments, clocks, the result line,
// the benchmark's own spans, obs snapshot arithmetic and scratch dirs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace obs = dramstress::obs;
namespace json = dramstress::util::json;

/// Pool threads of every workload: half the 4-core reference machine, so
/// a shared host keeps headroom.
constexpr int kThreads = 2;

/// Workload size: "full" is the measured size, "smoke" the smallest size
/// that still runs every code path (run.py --smoke).
enum class Size { Full, Smoke };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  Size size = Size::Full;
  /// Perturb every stored reference so the oracle must reject outputs
  /// (smoke mode proves ok_frac can fall below 1).
  bool perturb_reference = false;
  /// Print fresh reference data instead of measuring (see README.md).
  bool emit_reference = false;
};

// --- clocks ---------------------------------------------------------------

double now_s();         // steady clock
double cpu_s();         // user + system CPU of the whole process
double peak_rss_mb();   // ru_maxrss

double median(std::vector<double> xs);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> xs, double q);

/// Space set-up repetitions 60 ms apart, so their median samples more than
/// one of a shared host's speed swings instead of a single burst.
void pause_between_setups();

/// Wall and CPU time of one measured phase.
struct Phase {
  double wall_s = 0, cpu_s = 0;
  void start();
  void stop();

private:
  double w0_ = 0, c0_ = 0;
};

// --- the benchmark's own spans --------------------------------------------

/// Durations recorded around calls into the program's public functions.
/// Disabled (every call a no-op) unless the run is traced.
class Tracer {
public:
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }
  void add(const std::string& name, double seconds);
  const std::vector<double>& samples(const std::string& name) const;
  double total(const std::string& name) const;

private:
  bool on_ = false;
  std::map<std::string, std::vector<double>> samples_;
};

Tracer& tracer();

/// RAII span of the benchmark's own tracer (thread-safe).
class Span {
public:
  explicit Span(const char* name) : name_(name), t0_(now_s()) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* name_;
  double t0_;
};

// --- program metrics --------------------------------------------------------

/// The program's own obs counters, histograms and spans over one phase.
struct ObsWindow {
  obs::MetricsSnapshot metrics;
  std::vector<obs::SpanSnapshot> spans;

  void begin();  // resets the program's collectors
  void end();    // snapshots them

  long counter(const char* name) const { return metrics.counter(name); }
  /// Sum of the histograms whose name starts with `prefix`.
  double histogram_sum(const std::string& prefix) const;
  /// Self time (total minus children's totals) summed over every node
  /// named in `names`, walked per root tree.
  double self_s(const std::vector<std::string>& names) const;
  /// Inclusive time of every outermost node named `name`.
  double total_s(const std::string& name) const;
};

// --- the result line ------------------------------------------------------

struct Result {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// The end-to-end metrics every workload reports.
  void set_end_to_end(const Phase& measured, double setup_s);
  std::string json_line() const;
};

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// The per-layer metrics every workload reports: counts and ratios from
/// the program's obs windows over the measured phase (`w`) and the service
/// probe (`probe`), times from its spans and the benchmark's.  Rows a
/// workload does not exercise read 0.
void set_layer_metrics(const ObsWindow& w, const ObsWindow& probe, long ops,
                       Result* r);

// --- files ----------------------------------------------------------------

/// A fresh empty directory under .bench_build/work (relative to the
/// checkout root the benchmark runs in).  The benchmark never deletes its
/// scratch files: on file systems with online discard a mass delete slows
/// file creation for minutes, and the next run would measure that.
std::string fresh_dir(const std::string& tag);

/// Parse perfbench/ref/<name>.
json::Value load_reference(const std::string& name);

/// Scramble `order` deterministically from `seed`.
std::vector<size_t> shuffled(size_t n, uint64_t seed);

}  // namespace perfbench
