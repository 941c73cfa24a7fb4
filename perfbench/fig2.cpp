// fig2_planes: the Fig. 2 result-plane set of the opens O1..O3 on both
// bitlines at the nominal corner, one plane set per op, on the scalar
// engine users get by default.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/result_plane.hpp"
#include "defect/defect.hpp"
#include "dram/column.hpp"
#include "dram/column_sim.hpp"
#include "stress/stress.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ds = dramstress;
using ds::defect::Defect;
using ds::defect::DefectKind;

std::vector<Defect> fig2_defects(Size size) {
  if (size == Size::Smoke) return {{DefectKind::O3, ds::dram::Side::True}};
  std::vector<Defect> out;
  for (const DefectKind k : {DefectKind::O1, DefectKind::O2, DefectKind::O3})
    for (const ds::dram::Side s : {ds::dram::Side::True, ds::dram::Side::Comp})
      out.push_back({k, s});
  return out;
}

/// The measured ops: every defect of the figure, twice, so a run spans
/// enough of the host's speed swings to average them.
std::vector<Defect> fig2_ops(Size size) {
  constexpr int kRounds = 2;
  const std::vector<Defect> once = fig2_defects(size);
  std::vector<Defect> ops;
  for (int r = 0; r < (size == Size::Smoke ? 1 : kRounds); ++r)
    ops.insert(ops.end(), once.begin(), once.end());
  return ops;
}

std::string key_of(const Defect& d) {
  std::string k = ds::defect::to_string(d.kind);
  for (char& ch : k) ch = static_cast<char>(std::tolower(ch));
  return k + "/" + ds::dram::to_string(d.side);
}

/// One op's column and simulator: what a `dramstress planes` run builds.
struct Setup {
  std::unique_ptr<ds::dram::DramColumn> column;
  std::unique_ptr<ds::dram::ColumnSimulator> sim;
};

Setup build() {
  Setup s;
  s.column = std::make_unique<ds::dram::DramColumn>();
  s.sim = std::make_unique<ds::dram::ColumnSimulator>(
      *s.column, ds::stress::nominal_condition());
  return s;
}

ds::analysis::PlaneOptions plane_options() {
  ds::analysis::PlaneOptions po;  // the default 15-point acceptance grid
  po.threads = kThreads;
  return po;
}

/// The paper's graphical BR: where the (2) w0 curve crosses Vsa.
std::optional<double> br_2w0(const ds::analysis::PlaneSet& set) {
  return ds::analysis::plane_border_resistance(set.w0, 1);
}

bool finite_shape(const ds::analysis::ResultPlane& p, size_t n_r, double vdd) {
  if (p.r_values.size() != n_r || p.vsa.size() != n_r || p.curves.empty())
    return false;
  for (const double v : p.vsa)
    if (!std::isfinite(v) || v < 0.0 || v > vdd) return false;
  for (const auto& c : p.curves) {
    if (c.vc.size() != n_r) return false;
    for (const double v : c.vc)
      if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Residual Vc after the first w0, monotone in R (either direction: the
/// complement cell stores the inverted level), within `tol_v`.
bool monotone(const std::vector<double>& vc, double tol_v) {
  bool up = true, down = true;
  for (size_t i = 1; i < vc.size(); ++i) {
    up = up && vc[i] >= vc[i - 1] - tol_v;
    down = down && vc[i] <= vc[i - 1] + tol_v;
  }
  return up || down;
}

}  // namespace

void run_fig2(const Args& args, Pass* pass) {
  const json::Value ref = load_reference("fig2_planes.json");
  const double tol_dec = ref.find("br_tolerance_decades")->number;
  const double tol_v = ref.find("monotone_tolerance_v")->number;
  const json::Value& sets = *ref.find("sets");
  const double vdd = ds::stress::nominal_condition().vdd;
  const ds::analysis::PlaneOptions po = plane_options();
  const size_t n_r = static_cast<size_t>(po.num_r_points);

  const std::vector<Defect> defects = fig2_ops(args.size);
  const std::vector<size_t> order = shuffled(defects.size(), args.seed);

  // Set-up: every op's column and simulator, built several times.
  std::vector<Setup> setups;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pause_between_setups();
    const double t0 = now_s();
    std::vector<Setup> built;
    for (size_t i = 0; i < defects.size(); ++i) built.push_back(build());
    setup_times.push_back(now_s() - t0);
    setups = std::move(built);
  }
  pass->setup_s = median(setup_times);

  if (pass->traced) pass->window.begin();
  pass->measured.start();
  for (const size_t i : order) {
    const Defect& d = defects[i];
    ds::analysis::PlaneSet set;
    {
      Span span("analysis.generate_plane_set");
      set = ds::analysis::generate_plane_set(*setups[i].column, d,
                                             *setups[i].sim, po);
    }
    bool ok = finite_shape(set.w0, n_r, vdd) &&
              finite_shape(set.w1, n_r, vdd) &&
              finite_shape(set.r, n_r, vdd) &&
              monotone(set.w0.curves.front().vc, tol_v);
    const json::Value* want = sets.find(key_of(d));
    const std::optional<double> br = br_2w0(set);
    if (want == nullptr) {
      ok = false;
    } else if (want->is_number()) {
      double ref_br = want->number;
      if (args.perturb_reference) ref_br *= std::pow(10.0, 3 * tol_dec);
      ok = ok && br.has_value() &&
           std::abs(std::log10(*br / ref_br)) <= tol_dec;
    } else {
      ok = ok && !br.has_value();
    }
    ++pass->attempted;
    if (!ok) {
      ++pass->failed;
      std::fprintf(stderr, "fig2_planes: %s failed its check\n",
                   key_of(d).c_str());
    }
  }
  pass->measured.stop();
  if (pass->traced) pass->window.end();
}

void emit_fig2_reference() {
  const ds::analysis::PlaneOptions po = plane_options();
  std::printf("{\n  \"br_tolerance_decades\": 0.05,\n"
              "  \"monotone_tolerance_v\": 0.001,\n  \"sets\": {");
  const char* sep = "\n";
  for (const Defect& d : fig2_defects(Size::Full)) {
    Setup s = build();
    const ds::analysis::PlaneSet set =
        ds::analysis::generate_plane_set(*s.column, d, *s.sim, po);
    const std::optional<double> br = br_2w0(set);
    if (br.has_value())
      std::printf("%s    \"%s\": %.17g", sep, key_of(d).c_str(), *br);
    else
      std::printf("%s    \"%s\": null", sep, key_of(d).c_str());
    sep = ",\n";
  }
  std::printf("\n  }\n}\n");
}

}  // namespace perfbench
