#include "dram/ensemble_column.hpp"

#include <optional>

#include "circuit/ensemble_transient.hpp"
#include "dram/column_drive.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dramstress::dram {

using circuit::EnsembleTransient;
using circuit::TransientOptions;

namespace {

std::vector<circuit::Netlist*> lane_netlists(
    const std::vector<const ColumnSimulator*>& sims) {
  require(!sims.empty(), "EnsembleColumnSim: at least one lane required");
  std::vector<circuit::Netlist*> nets;
  nets.reserve(sims.size());
  for (const ColumnSimulator* s : sims) nets.push_back(&s->column().netlist());
  return nets;
}

}  // namespace

EnsembleColumnSim::EnsembleColumnSim(
    std::vector<const ColumnSimulator*> sims)
    : sims_(std::move(sims)), mna_(lane_netlists(sims_)) {
  const OperatingConditions& cond = sims_[0]->conditions();
  const SimSettings& st = sims_[0]->settings();
  require(st.adaptive,
          "EnsembleColumnSim: batching requires the adaptive engine");
  for (const ColumnSimulator* s : sims_) {
    const OperatingConditions& c = s->conditions();
    require(c.vdd == cond.vdd && c.temp_c == cond.temp_c &&
                c.tcyc == cond.tcyc && c.duty == cond.duty,
            "EnsembleColumnSim: lanes must share operating conditions");
    const SimSettings& t = s->settings();
    require(t.dt == st.dt && t.integrator == st.integrator &&
                t.adaptive == st.adaptive && t.lte_tol == st.lte_tol &&
                t.dt_min == st.dt_min && t.dt_max == st.dt_max &&
                t.reuse_jacobian == st.reuse_jacobian &&
                t.del_steps == st.del_steps,
            "EnsembleColumnSim: lanes must share simulation settings");
  }
}

std::vector<RunResult> EnsembleColumnSim::run_batch(
    const OpSequence& seq, Side side, const std::vector<double>& vc_init,
    const std::vector<char>& active, bool early_stop, double lte_scale,
    bool trace) {
  require(lte_scale >= 1.0,
          "EnsembleColumnSim::run_batch: lte_scale must be >= 1");
  OBS_SPAN("column.run_batch");
  const size_t nlanes = sims_.size();
  std::vector<char> act = active;
  if (act.empty()) act.assign(nlanes, 1);
  require(act.size() == nlanes && vc_init.size() == nlanes,
          "EnsembleColumnSim::run_batch: per-lane input size mismatch");

  std::vector<RunResult> results(nlanes);
  const OperatingConditions& cond = sims_[0]->conditions();
  const SimSettings& st = sims_[0]->settings();

  // Compiling installs each lane's waveforms; the schedule itself depends
  // only on (cond, side, seq, timing), which lanes share.
  std::optional<CompiledSchedule> sched;
  long active_count = 0;
  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    ++active_count;
    CompiledSchedule s = compile_sequence(sims_[l]->column(), cond, side, seq,
                                          st.timing);
    if (!sched) sched = std::move(s);
  }
  if (!sched) return results;
  obs::count("ensemble.runs");
  obs::count("ensemble.lanes", active_count);
  count_transients(active_count);

  TransientOptions topt;
  topt.dt = st.dt;
  topt.integrator = st.integrator;
  topt.temperature = cond.kelvin();
  topt.newton = st.newton;
  topt.lte_tol = st.lte_tol * lte_scale;
  topt.dt_min = st.dt_min;
  topt.dt_max = st.dt_max;
  topt.reuse_jacobian = st.reuse_jacobian;
  EnsembleTransient sim(mna_, topt, act);

  std::vector<DramColumn*> cols(nlanes, nullptr);
  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    cols[l] = &sims_[l]->column();
    if (trace) detail::add_column_probes(sim, l, *cols[l], side);
  }
  detail::drive_column(sim, cols, vc_init, cond, st, seq, *sched, side,
                       early_stop, results);
  if (trace)
    for (size_t l = 0; l < nlanes; ++l)
      if (act[l] != 0) results[l].trace = sim.trace(l);
  return results;
}

std::vector<int> EnsembleColumnSim::read_of_initial_batch(
    const std::vector<double>& vc_init, Side side,
    const std::vector<char>& active, bool early_stop, double lte_scale) {
  const std::vector<RunResult> rr =
      run_batch({Operation::r()}, side, vc_init, active, early_stop,
                lte_scale);
  std::vector<int> bits(sims_.size(), -1);
  for (size_t l = 0; l < sims_.size(); ++l)
    if (!rr[l].ops.empty() && rr[l].ops[0].bit.has_value())
      bits[l] = *rr[l].ops[0].bit;
  return bits;
}

}  // namespace dramstress::dram
