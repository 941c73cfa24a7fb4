// The column-run routine shared by both transient engines: initial
// conditions, probes and the schedule walk of ColumnSimulator::run on the
// fixed-step TransientSim (one lane) and of EnsembleColumnSim::run_batch on
// the adaptive EnsembleTransient (N lanes).  Internal to dram/.
//
// `Sim` is the lane-indexed engine interface EnsembleTransient exposes:
//   set_initial_condition(lane, node, volts), add_probe(lane, name, node),
//   set_dt(dt), run(t_end), voltage(lane, node).
// The compiled schedule's sample times and interval ends are common
// checkpoints at which every lane has landed exactly, so sampling is the
// same per-lane read on either engine.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

#include "circuit/source.hpp"
#include "dram/column_sim.hpp"
#include "obs/metrics.hpp"

namespace dramstress::dram::detail {

/// Histogram name for the wall time of one scheduled interval.  Literals:
/// obs metric names must outlive the process.
inline const char* op_wall_metric(const CompiledSchedule& sched,
                                  int op_index) {
  if (op_index < 0) return "op.wall.precharge";
  switch (sched.ops[static_cast<size_t>(op_index)].kind) {
    case OpKind::W0: return "op.wall.w0";
    case OpKind::W1: return "op.wall.w1";
    case OpKind::R: return "op.wall.r";
    case OpKind::Del: return "op.wall.del";
  }
  return "op.wall.precharge";
}

/// UIC start of `lane` on `col`, whose addressed cell on `side` floats at
/// `vc_init` (the floating-cell initialization of Section 3).
template <class Sim>
void set_column_initial_conditions(Sim& sim, size_t lane, DramColumn& col,
                                   const OperatingConditions& cond, Side side,
                                   double vc_init) {
  const double vbl = col.tech().vbl_frac * cond.vdd;
  const double vref = reference_level(col.tech(), cond.vdd, cond.kelvin());
  // Every source-driven node starts at its waveform's t=0 value, so the
  // first step does not see artificial rail steps.
  struct SrcInit {
    circuit::VoltageSource* src;
    const char* node;
  };
  auto& c = col.controls();
  const SrcInit inits[] = {
      {c.vdd, "vddn"}, {c.vbl, "vbln"},   {c.vref, "vrefn"}, {c.eq, "eq"},
      {c.san, "sann"}, {c.sap, "sapn"},   {c.wsl, "wsl"},    {c.csl, "csl"},
      {c.dt, "dt"},    {c.dc, "dc"},      {c.wl_true, "wl0"},
      {c.wl_comp, "wl0c"}, {c.wl_idle_t, "t1_wl"}, {c.wl_idle_c, "c1_wl"},
      {c.rwl_t, "rt_wl"}, {c.rwl_c, "rc_wl"},
  };
  for (const SrcInit& si : inits)
    sim.set_initial_condition(lane, col.netlist().find_node(si.node),
                              si.src->value(0.0));

  sim.set_initial_condition(lane, col.bt(), vbl);
  sim.set_initial_condition(lane, col.bc(), vbl);
  // Reference and idle cells.
  sim.set_initial_condition(lane, col.netlist().find_node("rt_cn"), vref);
  sim.set_initial_condition(lane, col.netlist().find_node("rc_cn"), vref);
  sim.set_initial_condition(lane, col.idle_cell_node(Side::True), 0.0);
  sim.set_initial_condition(lane, col.idle_cell_node(Side::Comp), 0.0);
  // Internal segment nodes follow the cell only while their path to the
  // storage node is intact; a node isolated from the cell by an injected
  // open equilibrates to the bitline level across cycles (it connects to
  // the bitline whenever the wordline opens), so it starts there.
  const double kOpenThreshold = 10e3;
  for (Side s : {Side::True, Side::Comp}) {
    const double v = (s == side) ? vc_init : 0.0;
    const bool o3_open = col.segment(s, "o3")->resistance() > kOpenThreshold;
    const bool o2_open = col.segment(s, "o2")->resistance() > kOpenThreshold;
    sim.set_initial_condition(lane, col.cell_node(s), v);
    sim.set_initial_condition(lane, col.seg_node_nm(s), o3_open ? vbl : v);
    sim.set_initial_condition(lane, col.seg_node_ns(s),
                              (o3_open || o2_open) ? vbl : v);
    sim.set_initial_condition(lane, col.seg_node_nd(s), vbl);
  }
  sim.set_initial_condition(lane, col.netlist().find_node("doutb"), 0.0);
  sim.set_initial_condition(lane, col.dout(), 0.0);
}

/// The trace probes of a column run: "bt", "bc" and the addressed cell.
template <class Sim>
void add_column_probes(Sim& sim, size_t lane, DramColumn& col, Side side) {
  sim.add_probe(lane, "bt", col.bt());
  sim.add_probe(lane, "bc", col.bc());
  sim.add_probe(lane, "vc", col.cell_node(side));
}

/// Run `seq` (compiled as `sched`) on every lane whose `cols` entry is
/// non-null: initial conditions from vc_init[lane], then the schedule walk,
/// filling results[lane].ops and final_vc.  With `early_stop` the walk ends
/// right after the last sample (probe runs consume only per-op results, so
/// the tail of the final cycle is skipped).  Records the op.wall.*
/// histograms per interval.
template <class Sim>
void drive_column(Sim& sim, const std::vector<DramColumn*>& cols,
                  const std::vector<double>& vc_init,
                  const OperatingConditions& cond, const SimSettings& st,
                  const OpSequence& seq, const CompiledSchedule& sched,
                  Side side, bool early_stop, std::vector<RunResult>& results) {
  const size_t nlanes = cols.size();
  for (size_t l = 0; l < nlanes; ++l) {
    if (cols[l] == nullptr) continue;
    set_column_initial_conditions(sim, l, *cols[l], cond, side, vc_init[l]);
    results[l].ops.resize(seq.size());
    for (size_t i = 0; i < seq.size(); ++i) results[l].ops[i].kind = seq[i].kind;
  }

  size_t next_sample = 0;
  const double eps = 1e-15;
  double now = 0.0;
  for (const auto& iv : sched.intervals) {
    const auto iv_start = std::chrono::steady_clock::now();
    const double span = iv.t1 - iv.t0;
    sim.set_dt(iv.is_del ? std::max(st.dt, span / st.del_steps) : st.dt);
    bool stop = false;
    while (!stop && next_sample < sched.samples.size() &&
           sched.samples[next_sample].t <= iv.t1 + eps) {
      const auto& sm = sched.samples[next_sample];
      if (sm.t > now + eps) {
        sim.run(sm.t);
        now = sm.t;
      }
      for (size_t l = 0; l < nlanes; ++l) {
        if (cols[l] == nullptr) continue;
        const DramColumn& col = *cols[l];
        OpResult& op = results[l].ops[static_cast<size_t>(sm.op_index)];
        if (sm.kind == CompiledSchedule::Sample::Kind::ReadBit) {
          op.sense_margin = sim.voltage(l, col.bt()) - sim.voltage(l, col.bc());
          op.bit = op.sense_margin > 0.0 ? 1 : 0;
        } else {
          op.vc = sim.voltage(l, col.cell_node(side));
        }
      }
      ++next_sample;
      stop = early_stop && next_sample == sched.samples.size();
    }
    if (!stop && iv.t1 > now + eps) {
      sim.run(iv.t1);
      now = iv.t1;
    }
    if (obs::collecting()) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - iv_start;
      obs::observe(op_wall_metric(sched, iv.op_index), wall.count());
    }
    if (stop) break;
  }

  for (size_t l = 0; l < nlanes; ++l)
    if (cols[l] != nullptr)
      results[l].final_vc = sim.voltage(l, cols[l]->cell_node(side));
}

}  // namespace dramstress::dram::detail
