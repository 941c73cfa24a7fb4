#include "circuit/mna.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dramstress::circuit {

namespace {
/// Below this unknown count the dense O(n^3) sweep beats the sparse
/// bookkeeping; above it the MNA matrix is sparse enough to win big.
constexpr int kSparseThreshold = 16;
}  // namespace

MnaSystem::MnaSystem(Netlist& netlist, SolverBackend backend)
    : netlist_(&netlist) {
  num_nodes_ = netlist.num_nodes();
  int branch = 0;
  for (const auto& dev : netlist.devices()) {
    dev->set_branch_base(branch);
    branch += dev->num_branches();
  }
  num_branches_ = branch;
  const size_t n = static_cast<size_t>(num_unknowns());
  jac_ = numeric::Matrix(n, n);
  res_.assign(n, 0.0);
  dx_.assign(n, 0.0);
  use_sparse_ = backend == SolverBackend::Sparse ||
                (backend == SolverBackend::Auto &&
                 num_unknowns() >= kSparseThreshold);
  if (use_sparse_) sjac_ = capture_pattern(netlist, num_unknowns());
}

numeric::SparseMatrix capture_pattern(const Netlist& netlist,
                                      int num_unknowns) {
  const size_t n = static_cast<size_t>(num_unknowns);
  const int num_nodes = netlist.num_nodes();
  numeric::SparseMatrix pattern(n);
  // Values are ignored by the unfinalized matrix, so a nonsense operating
  // point is fine.
  numeric::Vector x0(n, 0.0);
  numeric::Vector res_scratch(n, 0.0);
  for (const AnalysisMode mode :
       {AnalysisMode::DcOp, AnalysisMode::TransientBe,
        AnalysisMode::TransientTrap}) {
    StampContext ctx;
    ctx.mode = mode;
    ctx.time = 0.0;
    ctx.dt = 1e-9;  // any positive dt: only the structure matters here
    ctx.x = &x0;
    ctx.num_nodes = num_nodes;
    Stamper stamper(pattern, res_scratch, num_nodes);
    for (const auto& dev : netlist.devices()) dev->stamp(ctx, stamper);
  }
  for (int i = 0; i < num_nodes; ++i)
    pattern.add(static_cast<size_t>(i), static_cast<size_t>(i), 0.0);
  pattern.finalize();
  return pattern;
}

numeric::SparseMatrix& MnaSystem::sparse_jacobian() const {
  require(use_sparse_, "MnaSystem: sparse backend not enabled");
  return sjac_;
}

void MnaSystem::assemble(const StampContext& ctx, double gmin,
                         numeric::Matrix& jac, numeric::Vector& res) const {
  jac.zero();
  std::fill(res.begin(), res.end(), 0.0);
  Stamper stamper(jac, res, num_nodes_);
  for (const auto& dev : netlist_->devices()) dev->stamp(ctx, stamper);
  // gmin to ground on every node: keeps floating nodes (isolated storage
  // nodes with the access transistor off) non-singular and models a
  // negligible substrate leakage floor.
  for (int i = 0; i < num_nodes_; ++i) {
    const size_t k = static_cast<size_t>(i);
    jac(k, k) += gmin;
    res[k] += gmin * (*ctx.x)[k];
  }
}

void MnaSystem::assemble_sparse(const StampContext& ctx, double gmin,
                                numeric::SparseMatrix& jac,
                                numeric::Vector& res) const {
  jac.zero();
  std::fill(res.begin(), res.end(), 0.0);
  Stamper stamper(jac, res, num_nodes_);
  for (const auto& dev : netlist_->devices()) dev->stamp(ctx, stamper);
  for (int i = 0; i < num_nodes_; ++i) {
    const size_t k = static_cast<size_t>(i);
    jac.add(k, k, gmin);
    res[k] += gmin * (*ctx.x)[k];
  }
}

NewtonResult MnaSystem::solve(StampContext ctx, numeric::Vector& x,
                              const NewtonOptions& opt) const {
  require(x.size() == static_cast<size_t>(num_unknowns()),
          "MnaSystem::solve: unknown vector has wrong size");
  ctx.x = &x;
  ctx.num_nodes = num_nodes_;
  OBS_SPAN("newton.solve");

  const auto emit = [&](const NewtonResult& r) {
    obs::count("newton.solves");
    obs::count("newton.iterations", r.iterations);
    if (!r.converged) obs::count("newton.nonconverged");
  };

  NewtonResult result;
  for (int iter = 0; iter < opt.max_iter; ++iter) {
    if (use_sparse_) {
      assemble_sparse(ctx, opt.gmin, sjac_, res_);
      if (slu_.analyzed())
        slu_.refactor(sjac_);
      else
        slu_.factor(sjac_);
      slu_.solve_into(res_, dx_);  // dx_ = J^{-1} f ; the update is -dx_
    } else {
      assemble(ctx, opt.gmin, jac_, res_);
      lu_.factor(jac_);
      lu_.solve_into(res_, dx_);
    }

    // Damping: clamp the largest node-voltage update.
    double max_dv = 0.0;
    for (int i = 0; i < num_nodes_; ++i)
      max_dv = std::max(max_dv, std::fabs(dx_[static_cast<size_t>(i)]));
    const double scale = max_dv > opt.max_step ? opt.max_step / max_dv : 1.0;
    for (size_t i = 0; i < x.size(); ++i) x[i] -= scale * dx_[i];

    result.iterations = iter + 1;
    result.residual = numeric::norm_inf(res_);
    const double step = scale * max_dv;
    if (step < opt.v_tol && result.residual < opt.res_tol) {
      result.converged = true;
      emit(result);
      return result;
    }
  }
  // Final residual check: accept if the residual alone is tiny (can happen
  // when the update is limited by conditioning, not by physics).
  if (use_sparse_)
    assemble_sparse(ctx, opt.gmin, sjac_, res_);
  else
    assemble(ctx, opt.gmin, jac_, res_);
  result.residual = numeric::norm_inf(res_);
  result.converged = result.residual < opt.res_tol;
  if (!result.converged) {
    util::log_debug(util::format(
        "Newton: no convergence after %d iterations (residual %.3e) at t=%.4g",
        result.iterations, result.residual, ctx.time));
  }
  emit(result);
  return result;
}

}  // namespace dramstress::circuit
