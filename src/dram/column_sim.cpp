#include "dram/column_sim.hpp"

#include <string>

#include "circuit/mna.hpp"
#include "dram/column_drive.hpp"
#include "dram/ensemble_column.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dramstress::dram {

namespace {
thread_local long t_transients = 0;
}  // namespace

long thread_transients() { return t_transients; }

void count_transients(long n) {
  t_transients += n;
  obs::count("sim.transients", n);
}

using circuit::MnaSystem;
using circuit::TransientOptions;
using circuit::TransientSim;

int RunResult::read_bit(size_t i) const {
  require(i < ops.size(), "RunResult: op index out of range");
  require(ops[i].bit.has_value(),
          util::format("RunResult: op %zu is not a read", i));
  return *ops[i].bit;
}

double RunResult::vc_after(size_t i) const {
  require(i < ops.size(), "RunResult: op index out of range");
  return ops[i].vc;
}

int RunResult::last_read_bit() const {
  for (size_t i = ops.size(); i-- > 0;)
    if (ops[i].bit.has_value()) return *ops[i].bit;
  throw ModelError("RunResult: sequence contains no read");
}

ColumnSimulator::ColumnSimulator(DramColumn& column, OperatingConditions cond,
                                 SimSettings settings)
    : column_(&column), cond_(cond), settings_(settings) {}

namespace {

/// TransientSim seen through the lane-indexed interface drive_column takes
/// (its one lane is lane 0).
struct FixedStepLane {
  circuit::TransientSim& sim;
  void set_initial_condition(size_t, circuit::NodeId node, double volts) {
    sim.set_initial_condition(node, volts);
  }
  void add_probe(size_t, const std::string& name, circuit::NodeId node) {
    sim.add_probe(name, node);
  }
  void set_dt(double dt) { sim.set_dt(dt); }
  void run(double t_end) { sim.run(t_end); }
  double voltage(size_t, circuit::NodeId node) const {
    return sim.voltage(node);
  }
};

}  // namespace

RunResult ColumnSimulator::run(const OpSequence& seq, double vc_init,
                               Side side) const {
  if (settings_.adaptive) {
    // The adaptive engine: this simulation is a width-1 ensemble lane.
    EnsembleColumnSim lane({this});
    std::vector<RunResult> rr =
        lane.run_batch(seq, side, {vc_init}, {}, /*early_stop=*/false,
                       /*lte_scale=*/1.0, /*trace=*/true);
    return std::move(rr[0]);
  }

  OBS_SPAN("column.run");
  count_transients();
  DramColumn& col = *column_;
  const CompiledSchedule sched =
      compile_sequence(col, cond_, side, seq, settings_.timing);

  MnaSystem sys(col.netlist(), settings_.backend);
  TransientOptions topt;
  topt.dt = settings_.dt;
  topt.integrator = settings_.integrator;
  topt.temperature = cond_.kelvin();
  topt.newton = settings_.newton;
  topt.record_stride = settings_.record_stride;
  TransientSim sim(sys, topt);
  FixedStepLane lane{sim};
  detail::add_column_probes(lane, 0, col, side);

  std::vector<RunResult> result(1);
  detail::drive_column(lane, {&col}, {vc_init}, cond_, settings_, seq, sched,
                       side, /*early_stop=*/false, result);
  result[0].trace = sim.trace();
  return std::move(result[0]);
}

int ColumnSimulator::read_of_initial(double vc_init, Side side) const {
  const RunResult r = run({Operation::r()}, vc_init, side);
  return r.read_bit(0);
}

}  // namespace dramstress::dram
