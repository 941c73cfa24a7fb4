// Batched (ensemble) MNA: one symbolic analysis drives N parameter lanes.
//
// Every lane is a structurally identical netlist (per-worker clones of the
// same column; only element *values* differ -- the injected defect
// resistance, waveform levels, capacitor state).  The ensemble exploits
// that three ways:
//   * the CSR pattern, its slot map and the gmin diagonal are captured
//     once, from lane 0, and shared by every lane;
//   * the stamp sequence of each device is compiled once per analysis mode
//     into a flat slot program (Stamper record mode) and replayed for every
//     lane and iteration -- assembly never searches for a slot again;
//   * assembly replays those programs lane-major, writing straight into
//     each lane's CSR value array and residual, and MOSFET evaluation
//     caches each device's temperature constants (Mosfet::constants).
//
// Each lane keeps its own numeric factorization and Newton iterate, so
// lanes at different time steps / defect values never couple numerically:
// a lane's solution is a pure function of that lane's inputs, which is
// what makes batch-size-1-vs-N results byte-identical.  Within a solve,
// later iterations may reuse the first iteration's factorization (chord
// method); carrying a factorization across *steps* was tried and measured
// a net loss (see solve_lockstep).
// begin_run() forgets all factorizations so every run re-derives its pivot
// order from its own first matrix -- no cross-run numeric state.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "numeric/ensemble.hpp"
#include "numeric/sparse.hpp"

namespace dramstress::circuit {

class EnsembleMna {
public:
  /// Bind the lanes.  All netlists must be structurally identical (node
  /// count, device order/kinds/terminals); throws ModelError otherwise.
  /// Branch unknowns are assigned on every lane, as MnaSystem's
  /// constructor would.
  explicit EnsembleMna(std::vector<Netlist*> lanes);

  size_t num_lanes() const { return lanes_.size(); }
  int num_nodes() const { return num_nodes_; }
  int num_branches() const { return num_branches_; }
  int num_unknowns() const { return num_nodes_ + num_branches_; }

  Netlist& lane_netlist(size_t lane) { return *lanes_[lane]; }

  /// Forget every lane's factorization.  Call at the start of each
  /// simulation run: results then depend only on the run's inputs, never
  /// on what the engine solved before (the batch-determinism contract).
  void begin_run();

  /// Damped Newton in lockstep over `lanes` (lane indices).  ctx[l] and
  /// x[l] are indexed by absolute lane index and carry each lane's own
  /// mode/time/dt and iterate.  Lanes that converge retire from the
  /// iteration; results[l] is written for every requested lane.
  /// Damping, exact-residual convergence and residual-only acceptance after
  /// max_iter match MnaSystem::solve.  With `chord` a lane keeps its
  /// factorization for later iterations of the solve until its residual
  /// stops halving; without it every iteration refactors (plain Newton).
  void solve_lockstep(const std::vector<size_t>& lanes,
                      std::vector<StampContext>& ctx,
                      std::vector<numeric::Vector>& x,
                      const NewtonOptions& opt, bool chord,
                      std::vector<NewtonResult>& results);

  static double voltage(const numeric::Vector& x, NodeId n) {
    return MnaSystem::voltage(x, n);
  }

private:
  /// A MOSFET's temperature constants, recomputed only when the lane's
  /// temperature changes (once per simulation in practice).
  struct MosCache {
    const Mosfet* dev = nullptr;
    double temp_key = -1.0;  // kelvin `k` was computed for
    MosConstants k;
  };

  struct LaneSolver {
    numeric::SparseMatrix mat;  // shared pattern, this lane's values
    numeric::SparseLuSolver slu;
    numeric::Vector res, dx;
    bool fresh = true;  // no factorization yet this run
  };

  void record_programs();
  /// Assemble residual and Jacobian for every lane in `pending`.  When
  /// `res_only` is non-empty, lanes it flags replay the residual alone:
  /// chord iterations reuse the previous factorization, so their Jacobian
  /// is never read and its stores (and zero-fill) are skipped.
  void assemble(const std::vector<size_t>& pending,
                const std::vector<StampContext>& ctx,
                const std::vector<char>& res_only);

  std::vector<Netlist*> lanes_;
  int num_nodes_ = 0;
  int num_branches_ = 0;

  // Shared structure (from lane 0).
  numeric::SparseMatrix pattern_;
  std::vector<size_t> diag_slot_;  // gmin slot per node row
  // Per-mode slot programs with per-device offsets (off[d]..off[d+1]).
  std::vector<unsigned> prog_[3];
  std::vector<size_t> prog_off_[3];

  // Per-lane device tables (same order as lane 0).
  std::vector<std::vector<Device*>> devices_;     // [lane][device]
  std::vector<DeviceKind> kinds_;                 // [device]
  std::vector<int> mos_index_;                    // [device] -> mos_ slot or -1
  std::vector<std::vector<MosCache>> mos_;        // [lane][mosfet]

  std::vector<LaneSolver> solvers_;
  numeric::EnsembleLu elu_;  // lane-batched refactorization kernel
};

}  // namespace dramstress::circuit
