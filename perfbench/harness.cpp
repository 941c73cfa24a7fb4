#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "circuit/mna.hpp"
#include "dram/column.hpp"
#include "numeric/sparse.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<size_t>(rank, 1, xs.size()) - 1];
}

void Phase::start() {
  w0_ = now_s();
  c0_ = perfbench::cpu_s();
}

void Phase::stop() {
  wall_s = now_s() - w0_;
  cpu_s = perfbench::cpu_s() - c0_;
}

void pause_between_setups() {
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
}

// --- tracer ---------------------------------------------------------------

namespace {
std::mutex g_tracer_mu;
}

void Tracer::add(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(g_tracer_mu);
  samples_[name].push_back(seconds);
}

const std::vector<double>& Tracer::samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

double Tracer::total(const std::string& name) const {
  double s = 0;
  for (const double x : samples(name)) s += x;
  return s;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Span::~Span() {
  if (tracer().on()) tracer().add(name_, now_s() - t0_);
}

// --- obs window -----------------------------------------------------------

void ObsWindow::begin() {
  obs::reset_metrics();
  obs::reset_spans();
}

void ObsWindow::end() {
  metrics = obs::metrics_snapshot();
  spans = obs::spans_snapshot();
}

double ObsWindow::histogram_sum(const std::string& prefix) const {
  double s = 0;
  for (const auto& [name, h] : metrics.histograms)
    if (name.rfind(prefix, 0) == 0) s += h.sum;
  return s;
}

namespace {

void walk_self(const obs::SpanSnapshot& n,
               const std::vector<std::string>& names, double* acc) {
  if (std::find(names.begin(), names.end(), n.name) != names.end()) {
    double children = 0;
    for (const auto& c : n.children) children += c.total_s;
    *acc += n.total_s - children;
  }
  for (const auto& c : n.children) walk_self(c, names, acc);
}

void walk_total(const obs::SpanSnapshot& n, const std::string& name,
                double* acc) {
  if (n.name == name) {
    *acc += n.total_s;
    return;  // outermost only: nested same-name nodes are inside it
  }
  for (const auto& c : n.children) walk_total(c, name, acc);
}

}  // namespace

double ObsWindow::self_s(const std::vector<std::string>& names) const {
  double acc = 0;
  for (const auto& root : spans) walk_self(root, names, &acc);
  return acc;
}

double ObsWindow::total_s(const std::string& name) const {
  double acc = 0;
  for (const auto& root : spans) walk_total(root, name, &acc);
  return acc;
}

// --- result ---------------------------------------------------------------

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

void Result::set_end_to_end(const Phase& measured, double setup_s) {
  const long ok = attempted - failed;
  set("wall_s", measured.wall_s, "s");
  set("cpu_s", measured.cpu_s, "s");
  set("setup_s", setup_s, "s");
  set("peak_rss_mb", peak_rss_mb(), "MB");
  set("ok_frac", ratio(static_cast<double>(ok), static_cast<double>(attempted)),
      "frac");
  set("ops_per_s", ratio(static_cast<double>(ok), measured.wall_s), "1/s");
}

std::string Result::json_line() const {
  std::string out = "{\"correct\": ";
  out += failed == 0 && attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

/// Median `SparseLuSolver::refactor` time on the column's MNA Jacobian.
double lu_refactor_us() {
  namespace circuit = dramstress::circuit;
  dramstress::dram::DramColumn column;
  circuit::MnaSystem mna(column.netlist(), circuit::SolverBackend::Sparse);
  dramstress::numeric::SparseMatrix& jac = mna.sparse_jacobian();
  dramstress::numeric::Vector x(static_cast<size_t>(mna.num_unknowns()), 0.0);
  dramstress::numeric::Vector res(x.size(), 0.0);
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::TransientBe;
  ctx.dt = 0.1e-9;
  ctx.x = &x;
  ctx.num_nodes = mna.num_nodes();
  mna.assemble_sparse(ctx, 1e-12, jac, res);
  dramstress::numeric::SparseLuSolver lu;
  lu.factor(jac);
  // Batches of refactorizations; the median batch mean resists a
  // descheduled batch.
  constexpr int kBatches = 15, kPerBatch = 400;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < kPerBatch; ++i) lu.refactor(jac);
    per_call.push_back((now_s() - t0) / kPerBatch);
  }
  return 1e6 * median(per_call);
}

}  // namespace

void set_layer_metrics(const ObsWindow& w, const ObsWindow& probe, long ops,
                       Result* r) {
  const Tracer& t = tracer();
  const auto c = [&](const char* n) {
    return static_cast<double>(w.counter(n));
  };
  const auto pc = [&](const char* n) {
    return static_cast<double>(probe.counter(n));
  };
  // numeric
  r->set("numeric.lu_factor", c("sparse.factor"), "count");
  r->set("numeric.lu_refactor", c("sparse.refactor"), "count");
  r->set("numeric.refactor_per_iter",
         ratio(c("sparse.refactor"), c("newton.iterations")), "ratio");
  r->set("numeric.lu_refactor_us", lu_refactor_us(), "us");
  // circuit
  const double attempts = c("step.accepted") + c("step.rejected_lte") +
                          c("step.rejected_newton");
  r->set("circuit.newton_iters", c("newton.iterations"), "count");
  r->set("circuit.iters_per_solve",
         ratio(c("newton.iterations"), c("newton.solves")), "ratio");
  r->set("circuit.steps", c("step.accepted"), "count");
  r->set("circuit.step_accept_frac", ratio(c("step.accepted"), attempts),
         "frac");
  r->set("circuit.nonconverged", c("newton.nonconverged"), "count");
  r->set("circuit.transient_self_s",
         w.self_s({"transient.run", "newton.solve"}), "s");
  // dram
  r->set("dram.transients", c("sim.transients"), "count");
  r->set("dram.op_wall_s", w.histogram_sum("op.wall."), "s");
  r->set("dram.column_run_self_s",
         w.self_s({"column.run", "column.run_batch"}), "s");
  // analysis: planes
  r->set("analysis.plane_points", c("plane.points"), "count");
  r->set("analysis.vsa_hit_frac",
         ratio(c("vsa_cache.hit"), c("vsa_cache.hit") + c("vsa_cache.miss")),
         "frac");
  r->set("analysis.vsa_extract_s", w.total_s("vsa.extract"), "s");
  r->set("analysis.plane_set_s", t.total("analysis.generate_plane_set"), "s");
  // analysis: border search
  // border.bisect.iters already counts the surrogate's refine probes.
  r->set("analysis.border_probes",
         c("border.bisect.iters") + c("surrogate.verify"), "count");
  r->set("analysis.transients_per_unit",
         ratio(c("sim.transients"), static_cast<double>(ops)), "count");
  r->set("analysis.surrogate_fallback_frac",
         ratio(c("surrogate.fallback"), c("surrogate.fit")), "ratio");
  r->set("analysis.bracket_miss", c("border.bracket.miss"), "count");
  r->set("analysis.border_s", w.total_s("border.analyze"), "s");
  // campaign
  const double unit_s = w.total_s("campaign.unit");
  const double run_s = t.total("campaign.CampaignRunner.run");
  r->set("campaign.unit_s_total", unit_s, "s");
  r->set("campaign.worker_idle_frac",
         run_s > 0 ? 1.0 - unit_s / (kThreads * run_s) : 0.0, "frac");
  r->set("campaign.units_quarantined",
         c("campaign.unit_quarantined") + c("scheduler.unit_quarantined"),
         "count");
  r->set("campaign.retries", c("campaign.unit_retried"), "count");
  const double hits = pc("service.cache.hit_mem") + pc("service.cache.hit_disk");
  r->set("campaign.cache_hit_frac",
         ratio(hits, hits + pc("service.cache.miss")), "frac");
  r->set("campaign.cache_lookup_us",
         1e6 * median(t.samples("campaign.SharedCache.lookup")), "us");
  r->set("campaign.session_ms",
         1e3 * median(t.samples("campaign.Scheduler.session")), "ms");
  r->set("campaign.dispatch", pc("scheduler.dispatch"), "count");
  // service
  r->set("service.request_ms",
         1e3 * median(t.samples("service.request")), "ms");
  r->set("service.handle_ms",
         1e3 * median(t.samples("service.Server.handle")), "ms");
  r->set("service.errors",
         pc("service.bad_request") + pc("service.conn_error") +
             pc("service.slow_loris"),
         "count");
  // Rows only some workloads fill in (Pass::layer); 0 elsewhere.
  r->set("analysis.side_asymmetric_pairs", 0.0, "count");
  r->set("service.polls_per_session", 0.0, "ratio");
  r->set("service.op_p50_ms", 0.0, "ms");
  r->set("service.op_p99_ms", 0.0, "ms");
}

// --- files ----------------------------------------------------------------

std::string fresh_dir(const std::string& tag) {
  // Unique per process and start time, so a recycled pid never meets an
  // earlier run's files.
  static const fs::path root =
      fs::path(".bench_build/work") /
      ("run-" + std::to_string(::getpid()) + "-" +
       std::to_string(std::chrono::system_clock::now()
                          .time_since_epoch()
                          .count()));
  static int counter = 0;
  const fs::path p = root / (tag + "-" + std::to_string(counter++));
  fs::create_directories(p);
  return p.string();
}

json::Value load_reference(const std::string& name) {
  const std::string path = "perfbench/ref/" + name;
  std::ifstream f(path);
  if (!f.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << f.rdbuf();
  return json::parse(text.str());
}

std::vector<size_t> shuffled(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng() % i]);
  return order;
}

}  // namespace perfbench
