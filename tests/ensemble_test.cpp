// Contract of the batched ensemble engine (docs/ENGINE.md):
//  * every plane is bit-identical for every batch size >= 1, for the auto
//    lane count and for every thread count -- each lane's trajectory is a
//    pure function of its own inputs, never of its batch neighbours;
//  * default PlaneOptions run the ensemble engine; fixed stepping and
//    kScalarReference run the scalar per-point sweep;
//  * a single ColumnSimulator::run is a width-1 lane: it equals the same
//    lane of an N-lane batch bit for bit;
//  * the batched sweep tracks the per-point reference sweep within
//    tolerance (the batched Vsa extraction walks a dyadic grid where the
//    reference bisects);
//  * batched sweeps and single runs both record the op.wall.* histograms;
//  * lanes retire independently: an active-mask subset returns exactly
//    what the full batch returned for those lanes;
//  * LTE control is per lane: lanes with different dynamics accept a
//    different number of steps under one shared schedule;
//  * the Fig. 2 golden samples hold under the ensemble engine;
//  * the warm-started border search returns the same BR as the full scan.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analysis/border.hpp"
#include "analysis/result_plane.hpp"
#include "circuit/ensemble_mna.hpp"
#include "circuit/ensemble_transient.hpp"
#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "dram/column.hpp"
#include "dram/column_sim.hpp"
#include "dram/ensemble_column.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stress/stress.hpp"
#include "util/error.hpp"

namespace dramstress {
namespace {

using defect::Defect;
using defect::DefectKind;
using dram::Side;

analysis::PlaneOptions small_plane_options() {
  analysis::PlaneOptions opt;
  opt.num_r_points = 4;
  opt.ops_per_point = 2;
  opt.r_lo = 30e3;
  opt.r_hi = 1e6;
  return opt;
}

analysis::PlaneSet plane_set_with(const analysis::PlaneOptions& opt,
                                  const dram::SimSettings& settings = {}) {
  dram::DramColumn col;
  dram::ColumnSimulator sim(col, stress::nominal_condition(), settings);
  const Defect d{DefectKind::O3, Side::True};
  return analysis::generate_plane_set(col, d, sim, opt);
}

void expect_identical(const analysis::ResultPlane& a,
                      const analysis::ResultPlane& b) {
  ASSERT_EQ(a.r_values, b.r_values);
  ASSERT_EQ(a.vsa, b.vsa);  // exact double equality: bit-identical
  ASSERT_EQ(a.curves.size(), b.curves.size());
  for (size_t c = 0; c < a.curves.size(); ++c) {
    EXPECT_EQ(a.curves[c].op_number, b.curves[c].op_number);
    EXPECT_EQ(a.curves[c].from_above, b.curves[c].from_above);
    EXPECT_EQ(a.curves[c].vc, b.curves[c].vc) << "curve " << c;
  }
}

void expect_identical(const analysis::PlaneSet& a,
                      const analysis::PlaneSet& b) {
  expect_identical(a.w0, b.w0);
  expect_identical(a.w1, b.w1);
  expect_identical(a.r, b.r);
}

TEST(Ensemble, PlaneSetIdenticalAcrossBatchSizes) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.threads = 1;
  opt.batch = 1;
  const analysis::PlaneSet one = plane_set_with(opt);
  opt.batch = 4;
  const analysis::PlaneSet four = plane_set_with(opt);
  opt.batch = 16;  // more lanes than R points: a single partial batch
  const analysis::PlaneSet sixteen = plane_set_with(opt);
  expect_identical(one, four);
  expect_identical(one, sixteen);
}

TEST(Ensemble, PlaneSetIdenticalAcrossThreadCounts) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.batch = 2;
  opt.threads = 1;
  const analysis::PlaneSet one = plane_set_with(opt);
  opt.threads = 4;
  const analysis::PlaneSet four = plane_set_with(opt);
  expect_identical(one, four);
}

TEST(Ensemble, AutoLanesSplitTheGridEvenlyOverTheWorkers) {
  // Fewest batches that give every worker one, none wider than the cap.
  EXPECT_EQ(analysis::auto_lanes(15, 1), 15);
  EXPECT_EQ(analysis::auto_lanes(15, 2), 8);
  EXPECT_EQ(analysis::auto_lanes(15, 4), 4);
  EXPECT_EQ(analysis::auto_lanes(4, 8), 1);
  EXPECT_EQ(analysis::auto_lanes(32, 1), 16);
  EXPECT_EQ(analysis::auto_lanes(33, 1), 11);
  EXPECT_THROW(analysis::auto_lanes(0, 1), ModelError);
}

TEST(Ensemble, AutoLanesIdenticalToExplicitLanesAtEveryThreadCount) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.threads = 1;
  opt.batch = 1;
  const analysis::PlaneSet one_lane = plane_set_with(opt);
  opt.batch = 16;
  const analysis::PlaneSet sixteen = plane_set_with(opt);
  expect_identical(one_lane, sixteen);
  opt.batch = 0;  // auto: 4 lanes on 1 thread, 2 on 2, 1 on 4
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    opt.threads = threads;
    expect_identical(one_lane, plane_set_with(opt));
  }
}

TEST(Ensemble, DefaultOptionsRunTheEnsembleEngine) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  obs::reset_metrics();
  obs::reset_spans();
  plane_set_with(small_plane_options());
  EXPECT_GT(obs::metrics_snapshot().counter("ensemble.runs"), 0);
  // plane.point is the scalar sweep's per-point span.
  const auto has_point_span = [](const auto& self,
                                 const obs::SpanSnapshot& s) -> bool {
    if (s.name == "plane.point") return true;
    for (const obs::SpanSnapshot& c : s.children)
      if (self(self, c)) return true;
    return false;
  };
  for (const obs::SpanSnapshot& root : obs::spans_snapshot())
    EXPECT_FALSE(has_point_span(has_point_span, root)) << root.name;
}

TEST(Ensemble, FixedSteppingTakesTheScalarSweep) {
  // The ensemble engine steps adaptively only: default options under fixed
  // stepping must produce the scalar reference sweep, byte for byte.
  dram::SimSettings fixed;
  fixed.adaptive = false;
  analysis::PlaneOptions opt = small_plane_options();
  opt.threads = 1;
  const analysis::PlaneSet by_default = plane_set_with(opt, fixed);
  opt.batch = analysis::PlaneOptions::kScalarReference;
  expect_identical(by_default, plane_set_with(opt, fixed));
}

TEST(Ensemble, MatchesScalarEngineWithinTolerance) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.threads = 1;
  opt.batch = analysis::PlaneOptions::kScalarReference;
  const analysis::PlaneSet scalar = plane_set_with(opt);
  opt.batch = 4;
  const analysis::PlaneSet batched = plane_set_with(opt);

  // Sense thresholds: the batched extraction resolves the flip on a dyadic
  // grid of pitch <= tolerance, the scalar one bisects to the same
  // tolerance, so they agree within two tolerance widths.
  ASSERT_EQ(scalar.w1.vsa.size(), batched.w1.vsa.size());
  for (size_t i = 0; i < scalar.w1.vsa.size(); ++i)
    EXPECT_NEAR(scalar.w1.vsa[i], batched.w1.vsa[i],
                2.0 * opt.vsa.tolerance + 1e-12)
        << "vsa at R index " << i;

  // Write planes: same initial conditions, same LTE semantics -- the
  // engines differ only in roundoff-level solver details.
  const analysis::ResultPlane* pairs[][2] = {{&scalar.w0, &batched.w0},
                                             {&scalar.w1, &batched.w1}};
  for (const auto& pr : pairs) {
    const analysis::ResultPlane& s = *pr[0];
    const analysis::ResultPlane& b = *pr[1];
    ASSERT_EQ(s.curves.size(), b.curves.size());
    for (size_t c = 0; c < s.curves.size(); ++c)
      for (size_t i = 0; i < s.curves[c].vc.size(); ++i)
        EXPECT_NEAR(s.curves[c].vc[i], b.curves[c].vc[i], 0.02)
            << "curve " << c << " R index " << i;
  }
}

TEST(Ensemble, SingleRunIsALaneOfABatchBitForBit) {
  // ColumnSimulator::run with adaptive settings is a width-1 ensemble
  // lane, so it must reproduce lane k of an N-lane batch exactly (no early
  // stop, full LTE tolerance) -- every op, bit, margin and cell voltage.
  const double r_values[] = {50e3, 300e3, 2e6};
  const std::vector<double> vc = {0.3, 1.2, 2.1};
  const dram::OpSequence seq = {
      dram::Operation::w1(), dram::Operation::r(), dram::Operation::del(2e-6),
      dram::Operation::r(),  dram::Operation::w0(), dram::Operation::r()};
  for (const Side side : {Side::True, Side::Comp}) {
    SCOPED_TRACE(dram::to_string(side));
    const Defect d{DefectKind::O3, side};
    std::vector<std::unique_ptr<dram::DramColumn>> cols;
    std::vector<std::unique_ptr<defect::Injection>> injs;
    std::vector<std::unique_ptr<dram::ColumnSimulator>> sims;
    std::vector<const dram::ColumnSimulator*> lanes;
    for (const double r : r_values) {
      cols.push_back(std::make_unique<dram::DramColumn>());
      injs.push_back(std::make_unique<defect::Injection>(*cols.back(), d, r));
      sims.push_back(std::make_unique<dram::ColumnSimulator>(
          *cols.back(), stress::nominal_condition()));
      lanes.push_back(sims.back().get());
    }
    dram::EnsembleColumnSim ens(lanes);
    const std::vector<dram::RunResult> batch =
        ens.run_batch(seq, side, vc, {}, /*early_stop=*/false,
                      /*lte_scale=*/1.0);
    ASSERT_EQ(batch.size(), 3u);
    for (size_t k = 0; k < 3; ++k) {
      SCOPED_TRACE(k);
      dram::DramColumn col;
      defect::Injection inj(col, d, r_values[k]);
      const dram::ColumnSimulator single(col, stress::nominal_condition());
      const dram::RunResult one = single.run(seq, vc[k], side);
      ASSERT_EQ(one.ops.size(), batch[k].ops.size());
      for (size_t i = 0; i < one.ops.size(); ++i) {
        EXPECT_EQ(one.ops[i].kind, batch[k].ops[i].kind) << "op " << i;
        EXPECT_EQ(one.ops[i].bit, batch[k].ops[i].bit) << "op " << i;
        EXPECT_EQ(one.ops[i].sense_margin, batch[k].ops[i].sense_margin)
            << "op " << i;
        EXPECT_EQ(one.ops[i].vc, batch[k].ops[i].vc) << "op " << i;
      }
      EXPECT_EQ(one.final_vc, batch[k].final_vc);
      EXPECT_FALSE(one.trace.time.empty());
      EXPECT_TRUE(batch[k].trace.time.empty());  // batches record no trace
    }
  }
}

TEST(Ensemble, PlaneSweepAndSingleRunsRecordOpWall) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  const auto wall_count = [](const char* name) {
    const obs::MetricsSnapshot m = obs::metrics_snapshot();
    const auto it = m.histograms.find(name);
    return it == m.histograms.end() ? 0L : it->second.count;
  };
  dram::DramColumn col;
  const dram::ColumnSimulator sim(col, stress::nominal_condition());
  const Defect d{DefectKind::O3, Side::True};
  analysis::PlaneOptions opt = small_plane_options();
  opt.num_r_points = 2;
  opt.ops_per_point = 1;
  opt.threads = 1;

  obs::reset_metrics();
  analysis::generate_plane(col, d, sim, dram::OpKind::W0, opt);
  EXPECT_GT(obs::metrics_snapshot().counter("ensemble.runs"), 0);
  EXPECT_GT(wall_count("op.wall.precharge"), 0);
  EXPECT_GT(wall_count("op.wall.w0"), 0);
  EXPECT_GT(wall_count("op.wall.r"), 0);  // the Vsa probes

  obs::reset_metrics();
  sim.run({dram::Operation::w1(), dram::Operation::r()}, 0.0, Side::True);
  EXPECT_EQ(wall_count("op.wall.precharge"), 1);
  EXPECT_EQ(wall_count("op.wall.w1"), 1);
  EXPECT_EQ(wall_count("op.wall.r"), 1);
}

TEST(Ensemble, LaneRetirementAndActiveMask) {
  // Four lanes of the same column at different defect resistances, read
  // from decisive initial levels: each lane's bit must match the scalar
  // simulator's, and deactivating lanes must not change the others.
  const Defect d{DefectKind::O3, Side::True};
  const double r_values[] = {50e3, 200e3, 1e6, 5e6};
  const double vc_values[] = {0.2, 1.8, 0.2, 1.8};

  std::vector<std::unique_ptr<dram::DramColumn>> cols;
  std::vector<std::unique_ptr<defect::Injection>> injs;
  std::vector<std::unique_ptr<dram::ColumnSimulator>> sims;
  std::vector<const dram::ColumnSimulator*> lanes;
  for (double r : r_values) {
    cols.push_back(std::make_unique<dram::DramColumn>());
    injs.push_back(std::make_unique<defect::Injection>(*cols.back(), d, r));
    sims.push_back(std::make_unique<dram::ColumnSimulator>(
        *cols.back(), stress::nominal_condition()));
    lanes.push_back(sims.back().get());
  }
  dram::EnsembleColumnSim ens(lanes);
  const std::vector<double> vc(vc_values, vc_values + 4);
  const std::vector<int> full = ens.read_of_initial_batch(vc, d.side);
  ASSERT_EQ(full.size(), 4u);
  for (size_t l = 0; l < 4; ++l) {
    dram::DramColumn col;
    defect::Injection inj(col, d, r_values[l]);
    dram::ColumnSimulator scalar(col, stress::nominal_condition());
    EXPECT_EQ(full[l], scalar.read_of_initial(vc_values[l], d.side))
        << "lane " << l;
  }

  const std::vector<char> mask = {1, 0, 1, 0};
  const std::vector<int> sub = ens.read_of_initial_batch(vc, d.side, mask);
  ASSERT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub[0], full[0]);
  EXPECT_EQ(sub[1], -1);
  EXPECT_EQ(sub[2], full[2]);
  EXPECT_EQ(sub[3], -1);
}

TEST(Ensemble, PerLaneLteControl) {
  // Two RC lanes with time constants 40x apart under one shared schedule:
  // the per-lane LTE controllers must pick different step sequences, and
  // both lanes must still land on the analytic RC decay.
  auto build = [](circuit::Netlist& nl, double r) {
    const circuit::NodeId a = nl.node("a");
    nl.add_resistor("R1", a, circuit::kGround, r);
    nl.add_capacitor("C1", a, circuit::kGround, 1e-9);
    return a;
  };
  circuit::Netlist fast, slow;
  const circuit::NodeId node = build(fast, 25.0);   // tau = 25 ns
  const circuit::NodeId node2 = build(slow, 1e3);   // tau = 1 us
  ASSERT_EQ(node, node2);

  std::vector<circuit::Netlist*> nets = {&fast, &slow};
  circuit::EnsembleMna sys(nets);
  circuit::TransientOptions opt;
  opt.dt = 0.5e-9;
  circuit::EnsembleTransient sim(sys, opt);
  sim.set_initial_condition(0, node, 1.0);
  sim.set_initial_condition(1, node, 1.0);
  sim.run(100e-9);

  EXPECT_NEAR(sim.voltage(0, node), std::exp(-100.0 / 25.0), 5e-3);
  EXPECT_NEAR(sim.voltage(1, node), std::exp(-100.0 / 1000.0), 5e-3);
  // The fast lane needs more resolution over the same interval.
  EXPECT_GT(sim.accepted_steps(0), sim.accepted_steps(1));
}

TEST(Ensemble, GoldenFig2SamplesHoldUnderEnsemble) {
  // The PR 5 golden gates of the Fig. 2 plane, re-run through the batched
  // engine (same grid, batch 4): published samples and trends must hold
  // within the golden tolerances.
  analysis::PlaneOptions opt;
  opt.num_r_points = 13;
  opt.ops_per_point = 3;
  opt.r_lo = 10e3;
  opt.r_hi = 10e6;
  opt.threads = 1;
  opt.batch = 4;
  dram::DramColumn column;
  const Defect d{DefectKind::O3, Side::True};
  const dram::OperatingConditions nominal{2.4, 27.0, 60e-9, 0.5};
  dram::ColumnSimulator sim(column, nominal);
  const analysis::PlaneSet planes =
      analysis::generate_plane_set(column, d, sim, opt);

  constexpr double kVcTol = 0.03;
  constexpr double kVsaTol = 0.02;
  const size_t last = planes.w1.r_values.size() - 1;
  EXPECT_NEAR(planes.w1.curves[0].vc[0], 2.0601, kVcTol);
  EXPECT_NEAR(planes.w1.curves[0].vc[last], 0.0700, kVcTol);
  EXPECT_NEAR(planes.w0.curves[0].vc[0], 0.0110, kVcTol);
  EXPECT_NEAR(planes.r.curves[0].vc[0], 0.0205, kVcTol);
  EXPECT_NEAR(planes.r.curves[1].vc[0], 2.0771, kVcTol);
  EXPECT_NEAR(planes.w1.vsa[0], 1.1660, kVsaTol);
  EXPECT_NEAR(planes.w1.vsa[last], 0.3926, kVsaTol);
  for (size_t i = 1; i < planes.w1.vsa.size(); ++i)
    EXPECT_LE(planes.w1.vsa[i], planes.w1.vsa[i - 1] + 1e-9);
  for (size_t i = 1; i <= last; ++i)
    EXPECT_LT(planes.w1.curves[0].vc[i], planes.w1.curves[0].vc[i - 1]);
}

TEST(Ensemble, BorderWarmStartMatchesFullScan) {
  // The warm-started search must land on the same border as the full
  // coarse scan (both bisect to log_tol), in fewer probes.
  dram::DramColumn column;
  const Defect d{DefectKind::O3, Side::True};
  dram::ColumnSimulator sim(column, stress::nominal_condition());
  analysis::BorderResult nominal;
  {
    analysis::BorderOptions opt;
    nominal = analysis::analyze_defect(column, d, sim, opt);
  }
  ASSERT_TRUE(nominal.br.has_value());
  const defect::SweepRange range = defect::default_sweep_range(d.kind);

  analysis::BorderOptions cold_opt;
  const analysis::BorderResult cold = analysis::find_border_resistance(
      column, d, sim, nominal.condition, range, cold_opt);
  analysis::BorderOptions warm_opt;
  warm_opt.bracket_hint = *nominal.br * 1.3;  // deliberately offset hint
  const analysis::BorderResult warm = analysis::find_border_resistance(
      column, d, sim, nominal.condition, range, warm_opt);

  ASSERT_TRUE(cold.br.has_value());
  ASSERT_TRUE(warm.br.has_value());
  EXPECT_NEAR(*warm.br, *cold.br, 0.05 * *cold.br);
  EXPECT_EQ(warm.fails_everywhere, cold.fails_everywhere);

  // A hint outside the range falls back to the full scan unchanged.
  analysis::BorderOptions out_opt;
  out_opt.bracket_hint = range.hi * 10.0;
  const analysis::BorderResult fallback = analysis::find_border_resistance(
      column, d, sim, nominal.condition, range, out_opt);
  ASSERT_TRUE(fallback.br.has_value());
  EXPECT_DOUBLE_EQ(*fallback.br, *cold.br);
}

}  // namespace
}  // namespace dramstress
