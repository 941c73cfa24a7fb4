#include "circuit/ensemble_mna.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "circuit/passive.hpp"
#include "circuit/source.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dramstress::circuit {

namespace {

int mode_index(AnalysisMode m) { return static_cast<int>(m); }

}  // namespace

EnsembleMna::EnsembleMna(std::vector<Netlist*> lanes)
    : lanes_(std::move(lanes)) {
  require(!lanes_.empty(), "EnsembleMna: at least one lane required");
  num_nodes_ = lanes_[0]->num_nodes();
  const size_t num_devices = lanes_[0]->devices().size();
  const size_t nlanes = lanes_.size();

  devices_.resize(nlanes);
  mos_.resize(nlanes);
  kinds_.reserve(num_devices);
  mos_index_.reserve(num_devices);

  for (size_t l = 0; l < nlanes; ++l) {
    Netlist& nl = *lanes_[l];
    require(nl.num_nodes() == num_nodes_,
                  "EnsembleMna: lanes disagree on node count");
    require(nl.devices().size() == num_devices,
                  "EnsembleMna: lanes disagree on device count");
    devices_[l].reserve(num_devices);
    int branch = 0;
    for (size_t di = 0; di < num_devices; ++di) {
      Device* dev = nl.devices()[di].get();
      dev->set_branch_base(branch);
      branch += dev->num_branches();
      devices_[l].push_back(dev);
      if (l == 0) {
        kinds_.push_back(dev->kind());
        if (dev->kind() == DeviceKind::Mosfet) {
          mos_index_.push_back(static_cast<int>(mos_[0].size()));
        } else {
          mos_index_.push_back(-1);
        }
      } else {
        Device* ref = devices_[0][di];
        require(dev->kind() == ref->kind() &&
                          dev->num_branches() == ref->num_branches() &&
                          dev->terminals() == ref->terminals() &&
                          dev->sense_terminals() == ref->sense_terminals(),
                      "EnsembleMna: lanes are not structurally identical: " +
                          dev->name());
      }
      if (dev->kind() == DeviceKind::Mosfet) {
        MosCache mc;
        mc.dev = static_cast<const Mosfet*>(dev);
        mos_[l].push_back(mc);
      }
    }
    if (l == 0) {
      num_branches_ = branch;
    } else {
      require(branch == num_branches_,
                    "EnsembleMna: lanes disagree on branch count");
    }
  }

  pattern_ = capture_pattern(*lanes_[0], num_unknowns());
  record_programs();

  const size_t n = static_cast<size_t>(num_unknowns());
  diag_slot_.resize(static_cast<size_t>(num_nodes_));
  for (int i = 0; i < num_nodes_; ++i) {
    const size_t k = static_cast<size_t>(i);
    diag_slot_[k] = pattern_.slot(k, k);
  }

  solvers_.resize(nlanes);
  for (auto& ls : solvers_) {
    ls.mat = pattern_;  // shared structure, per-lane values
    ls.res.assign(n, 0.0);
    ls.dx.assign(n, 0.0);
  }
}

void EnsembleMna::record_programs() {
  // A device's stamp sequence is fixed within an analysis mode (stamps may
  // be skipped per mode -- capacitors in DC -- but never per value), so
  // recording lane 0 once per mode yields a program valid for every lane
  // and every iterate.
  const size_t n = static_cast<size_t>(num_unknowns());
  const size_t num_devices = devices_[0].size();
  numeric::Vector x0(n, 0.0);
  numeric::Vector res_scratch(n, 0.0);
  for (const AnalysisMode mode :
       {AnalysisMode::DcOp, AnalysisMode::TransientBe,
        AnalysisMode::TransientTrap}) {
    const int m = mode_index(mode);
    StampContext ctx;
    ctx.mode = mode;
    ctx.time = 0.0;
    ctx.dt = 1e-9;
    ctx.x = &x0;
    ctx.num_nodes = num_nodes_;
    prog_off_[m].clear();
    prog_off_[m].reserve(num_devices + 1);
    prog_[m].clear();
    for (size_t di = 0; di < num_devices; ++di) {
      prog_off_[m].push_back(prog_[m].size());
      Stamper rec(pattern_, prog_[m], res_scratch, num_nodes_);
      devices_[0][di]->stamp(ctx, rec);
    }
    prog_off_[m].push_back(prog_[m].size());
    for (const unsigned slot : prog_[m])
      require(slot < pattern_.nnz(),
                    "EnsembleMna: stamp outside the captured pattern");
  }
}

void EnsembleMna::begin_run() {
  for (auto& ls : solvers_) ls.fresh = true;
}

void EnsembleMna::assemble(const std::vector<size_t>& pending,
                           const std::vector<StampContext>& ctx,
                           const std::vector<char>& res_only) {
  // Lane-major direct assembly: each lane replays the shared slot programs
  // straight into its own CSR value array and residual (stride 1).  An
  // earlier device-major variant staged values in a lane-major SoA store
  // and gathered per lane before factoring; the gather touched every value
  // a second time per iteration and measured slower on the plane workload,
  // so the staging was dropped.
  const size_t nnz = pattern_.nnz();
  const size_t num_devices = kinds_.size();
  for (const size_t l : pending) {
    LaneSolver& ls = solvers_[l];
    const StampContext& c = ctx[l];
    const int m = mode_index(c.mode);
    double* jac = nullptr;
    if (res_only.empty() || res_only[l] == 0) {
      jac = ls.mat.values_data();
      std::fill(jac, jac + nnz, 0.0);
    }
    std::fill(ls.res.begin(), ls.res.end(), 0.0);
    // One Stamper replays the whole lane: devices consume the program
    // sequentially, and every per-mode program has a fixed entry count per
    // device, so the cursor stays aligned with prog_off_.  The common
    // element kinds dispatch through qualified (non-virtual) calls to the
    // header-inline stamps, which lets the compiler fold them -- and the
    // Stamper mode branches -- into this loop.
    Stamper st(prog_[m].data(), jac, ls.res.data(), /*stride=*/1, num_nodes_);
    for (size_t di = 0; di < num_devices; ++di) {
      const Device* dev = devices_[l][di];
      switch (kinds_[di]) {
        case DeviceKind::Mosfet: {
          MosCache& mc = mos_[l][static_cast<size_t>(mos_index_[di])];
          if (mc.temp_key != c.temperature) {
            mc.temp_key = c.temperature;
            mc.k = mc.dev->constants(c.temperature);
          }
          mc.dev->stamp_with(mc.k, c, st);
          break;
        }
        case DeviceKind::Resistor:
          static_cast<const Resistor*>(dev)->Resistor::stamp(c, st);
          break;
        case DeviceKind::Capacitor:
          static_cast<const Capacitor*>(dev)->Capacitor::stamp(c, st);
          break;
        case DeviceKind::VoltageSource:
          static_cast<const VoltageSource*>(dev)->VoltageSource::stamp(c, st);
          break;
        default:
          dev->stamp(c, st);
          break;
      }
    }
  }
}

void EnsembleMna::solve_lockstep(const std::vector<size_t>& lanes,
                                 std::vector<StampContext>& ctx,
                                 std::vector<numeric::Vector>& x,
                                 const NewtonOptions& opt, bool chord,
                                 std::vector<NewtonResult>& results) {
  const size_t n = static_cast<size_t>(num_unknowns());

  // Every solve (re)factors at its first iteration; later iterations of
  // the same solve may reuse that factorization (chord method).  A
  // cross-*step* chord was tried here and measured a net loss on the plane
  // workload -- it roughly doubled the Newton iteration count (4.9 vs 2.5
  // per solve), and each extra iteration costs a full assembly, which
  // outweighs the ~2 us refactorization it saves; on the Table-1 campaign
  // it saved 0.06 % of refactorizations (docs/ENGINE.md).
  std::vector<char> reuse(lanes_.size(), 0);
  std::vector<double> prev_res(lanes_.size(), 0.0);
  long chord_reuses = 0;
  long chord_fallbacks = 0;

  for (const size_t l : lanes) {
    require(x[l].size() == n,
                  "EnsembleMna::solve_lockstep: unknown vector has wrong size");
    ctx[l].x = &x[l];
    ctx[l].num_nodes = num_nodes_;
    results[l] = NewtonResult{};
    reuse[l] = 0;
  }

  std::vector<size_t> pending = lanes;
  std::vector<size_t> next;
  next.reserve(pending.size());
  long active_lane_rounds = 0;
  long rounds = 0;

  std::vector<size_t> refac;
  refac.reserve(lanes.size());
  std::vector<numeric::SparseLuSolver*> slus;
  std::vector<const numeric::SparseMatrix*> mats;
  std::vector<const numeric::Vector*> rhs;
  std::vector<numeric::Vector*> dxs;
  std::vector<char> batched_done;

  for (int iter = 0; iter < opt.max_iter && !pending.empty(); ++iter) {
    ++rounds;
    active_lane_rounds += static_cast<long>(pending.size());
    // Chord lanes (reuse set) keep their factorization, so only their
    // residual is assembled; everyone else gets the full Jacobian.
    assemble(pending, ctx, reuse);

    // Pass 1: gmin regularization, and classify each lane's factor work.
    // Lanes refactoring this round (all of them at iteration 0) do it in
    // one lane-batched elimination when their recorded pivot orders agree.
    refac.clear();
    for (const size_t l : pending) {
      LaneSolver& ls = solvers_[l];
      if (reuse[l] != 0) {
        // Residual-only round: the Jacobian was neither assembled nor
        // will it be read, so gmin lands on the residual alone.
        for (int i = 0; i < num_nodes_; ++i) {
          const size_t k = static_cast<size_t>(i);
          ls.res[k] += opt.gmin * x[l][k];
        }
        ++chord_reuses;
        continue;
      }
      double* v = ls.mat.values_data();
      for (int i = 0; i < num_nodes_; ++i) {
        const size_t k = static_cast<size_t>(i);
        v[diag_slot_[k]] += opt.gmin;
        ls.res[k] += opt.gmin * x[l][k];
      }
      if (ls.fresh) {
        // First factorization of this run: fresh pivot order, so the
        // numeric path is a pure function of this run's inputs.
        ls.slu.factor(ls.mat);
        ls.fresh = false;
        reuse[l] = chord ? 1 : 0;
      } else {
        refac.push_back(l);
      }
    }
    if (!refac.empty()) {
      batched_done.assign(refac.size(), 0);
      if (refac.size() >= 2) {
        slus.clear();
        mats.clear();
        for (const size_t l : refac) {
          slus.push_back(&solvers_[l].slu);
          mats.push_back(&solvers_[l].mat);
        }
        elu_.refactor_batch(slus.data(), mats.data(), refac.size(),
                            batched_done.data());
      }
      for (size_t i = 0; i < refac.size(); ++i) {
        const size_t l = refac[i];
        if (batched_done[i] == 0) solvers_[l].slu.refactor(solvers_[l].mat);
        reuse[l] = chord ? 1 : 0;
      }
    }

    // Pass 2: triangular solves (lane-batched over the shared structure
    // where pivot orders agree -- bit-identical to solve_into), then
    // per-lane damping and convergence.
    batched_done.assign(pending.size(), 0);
    if (pending.size() >= 2) {
      slus.clear();
      rhs.clear();
      dxs.clear();
      for (const size_t l : pending) {
        slus.push_back(&solvers_[l].slu);
        rhs.push_back(&solvers_[l].res);
        dxs.push_back(&solvers_[l].dx);
      }
      elu_.solve_batch(slus.data(), rhs.data(), dxs.data(), pending.size(),
                       batched_done.data());
    }
    next.clear();
    for (size_t pi = 0; pi < pending.size(); ++pi) {
      const size_t l = pending[pi];
      LaneSolver& ls = solvers_[l];
      if (batched_done[pi] == 0) ls.slu.solve_into(ls.res, ls.dx);

      double max_dv = 0.0;
      for (int i = 0; i < num_nodes_; ++i)
        max_dv = std::max(max_dv, std::fabs(ls.dx[static_cast<size_t>(i)]));
      const double scale = max_dv > opt.max_step ? opt.max_step / max_dv : 1.0;
      numeric::Vector& xl = x[l];
      for (size_t i = 0; i < xl.size(); ++i) xl[i] -= scale * ls.dx[i];

      results[l].iterations = iter + 1;
      results[l].residual = numeric::norm_inf(ls.res);
      const double step = scale * max_dv;
      if (step < opt.v_tol && results[l].residual < opt.res_tol) {
        results[l].converged = true;
        continue;  // retire the lane from this solve
      }
      if (reuse[l] != 0 && iter > 0 &&
          results[l].residual > 0.5 * prev_res[l]) {
        reuse[l] = 0;
        ++chord_fallbacks;
      }
      prev_res[l] = results[l].residual;
      next.push_back(l);
    }
    pending.swap(next);
  }

  if (!pending.empty()) {
    // Residual-only acceptance after max_iter, as in MnaSystem::solve.
    // Every lane can skip the Jacobian here: nothing factors again.
    std::vector<char> all_res_only(lanes_.size(), 1);
    assemble(pending, ctx, all_res_only);
    for (const size_t l : pending) {
      LaneSolver& ls = solvers_[l];
      for (int i = 0; i < num_nodes_; ++i)
        ls.res[static_cast<size_t>(i)] += opt.gmin * x[l][static_cast<size_t>(i)];
      results[l].residual = numeric::norm_inf(ls.res);
      results[l].converged = results[l].residual < opt.res_tol;
    }
  }

  long total_iters = 0;
  long nonconverged = 0;
  for (const size_t l : lanes) {
    total_iters += results[l].iterations;
    if (!results[l].converged) ++nonconverged;
  }
  obs::count("newton.solves", static_cast<long>(lanes.size()));
  obs::count("newton.iterations", total_iters);
  if (chord_reuses != 0) obs::count("newton.chord_reuse", chord_reuses);
  if (nonconverged != 0) obs::count("newton.nonconverged", nonconverged);
  if (chord_fallbacks != 0)
    obs::count("newton.chord_fallback", chord_fallbacks);
  if (rounds > 0) {
    obs::observe("ensemble.occupancy",
                 static_cast<double>(active_lane_rounds) /
                     (static_cast<double>(rounds) *
                      static_cast<double>(lanes_.size())));
  }
}

}  // namespace dramstress::circuit
