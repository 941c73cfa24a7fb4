// MOSFET large-signal model.
//
// An EKV-flavoured charge-sheet approximation is used instead of the
// classic SPICE level-1 square law because it is:
//  * source/drain symmetric -- a DRAM access transistor conducts in both
//    directions (write vs. read/restore), and the square law's hard
//    saturation split is not symmetric;
//  * continuous from subthreshold to strong inversion, so Newton never
//    sees a derivative jump at Vgs = Vth;
//  * naturally temperature dependent through Vth(T), mobility(T) and the
//    thermal voltage -- exactly the mechanisms the paper invokes for the
//    temperature stress (Section 4.2).
//
// Ids = Ispec * [F((Vp-Vs)/Vt) - F((Vp-Vd)/Vt)] * (1 + lambda |Vds|)
//   with Vp = (Vg - Vth)/n,  F(u) = ln(1 + e^{u/2})^2,
//   Ispec = 2 n kp (W/L) Vt^2,  all voltages bulk-referenced.
//
// Gate and bulk are ideal (no DC current); device capacitances are modelled
// as explicit Capacitor elements in the netlist where they matter.
//
// One model source serves every engine: the EKV kernel ekv_f and the
// evaluation over temperature-hoisted MosConstants below are what both
// Mosfet::stamp (MnaSystem) and the ensemble assembler (EnsembleMna, which
// caches the constants per lane) call.
#pragma once

#include <cmath>

#include "circuit/device.hpp"

namespace dramstress::circuit {

enum class MosType { Nmos, Pmos };

struct MosfetParams {
  double w = 1e-6;        // channel width, m
  double l = 0.25e-6;     // channel length, m
  double kp_tnom = 120e-6;  // transconductance u0*Cox, A/V^2, at tnom
  double vth0 = 0.7;      // |Vth| at tnom, V
  double n = 1.35;        // subthreshold slope factor
  double lambda = 0.02;   // channel-length modulation, 1/V
  double tnom = 300.15;   // reference temperature, K
  double tcv = 1.5e-3;    // |Vth| decrease per kelvin of warming, V/K
  double bex = -1.5;      // mobility temperature exponent
};

/// Operating-point currents/conductances returned by evaluate().
struct MosOperatingPoint {
  double ids = 0.0;  // drain -> source current, A (sign per device type)
  double gm = 0.0;   // dIds/dVg
  double gds = 0.0;  // dIds/dVd
  double gs = 0.0;   // dIds/dVs
  double gb = 0.0;   // dIds/dVb
};

/// Everything in the evaluation that depends on parameters and temperature
/// but not on terminal voltages (the pow, Vth(T) and Vt block).
struct MosConstants {
  double sign = 1.0;  // +1 NMOS, -1 PMOS (evaluation runs mirrored)
  double n = 1.0;
  double lambda = 0.0;
  double vt = 0.0;     // thermal voltage, V
  double vth = 0.0;    // |Vth| at the temperature, V
  double ispec = 0.0;  // specific current, A
};

/// EKV interpolation F(u) = softplus(u/2)^2 and its derivative, sharing one
/// exp() between the softplus and logistic factors (logistic(x) =
/// e^x / (1 + e^x)); overflow-safe outside |u/2| <= 35.
inline void ekv_f(double u, double* f, double* df) {
  const double x = 0.5 * u;
  double sp;
  double lg;
  if (x > 35.0) {
    sp = x;
    lg = 1.0;
  } else if (x < -35.0) {
    const double e = std::exp(x);
    sp = e;
    lg = e;
  } else {
    const double e = std::exp(x);
    sp = std::log1p(e);
    lg = e / (1.0 + e);
  }
  *f = sp * sp;
  *df = sp * lg;
}

class Mosfet : public Device {
public:
  Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
         NodeId source, NodeId bulk, MosfetParams params);

  void stamp(const StampContext& ctx, Stamper& s) const override {
    stamp_with(constants(ctx.temperature), ctx, s);
  }
  DeviceKind kind() const override { return DeviceKind::Mosfet; }
  std::vector<NodeId> terminals() const override { return {d_, s_}; }
  std::vector<NodeId> sense_terminals() const override { return {g_, b_}; }

  /// The temperature block of the evaluation at `kelvin`.
  MosConstants constants(double kelvin) const;

  /// Large-signal evaluation at bulk-referenced terminal voltages with
  /// precomputed constants -- the one evaluation every engine runs.
  static MosOperatingPoint evaluate(const MosConstants& k, double vd,
                                    double vg, double vs, double vb);

  /// Large-signal evaluation at explicit terminal voltages (exposed for
  /// characterization tests and the fast behavioural model calibration).
  MosOperatingPoint evaluate(double vd, double vg, double vs, double vb,
                             double kelvin) const {
    return evaluate(constants(kelvin), vd, vg, vs, vb);
  }

  /// Evaluate at ctx's iterate with `k` and stamp.  The call order is fixed:
  /// EnsembleMna's recorded stamp programs rely on it.
  void stamp_with(const MosConstants& k, const StampContext& ctx,
                  Stamper& s) const;

  /// Threshold voltage magnitude at temperature T.
  double vth(double kelvin) const;

  const MosfetParams& params() const { return p_; }
  MosType type() const { return type_; }

  /// Scale the channel width by `factor` (used to model sense-amp device
  /// mismatch, one of the mechanisms behind the read-vs-temperature
  /// non-monotonicity in Fig. 4).
  void scale_width(double factor);

private:
  MosType type_;
  NodeId d_;
  NodeId g_;
  NodeId s_;
  NodeId b_;
  MosfetParams p_;
};

inline MosOperatingPoint Mosfet::evaluate(const MosConstants& k, double vd,
                                          double vg, double vs, double vb) {
  // PMOS: evaluate the NMOS equations in mirrored voltage space; currents
  // negate, conductances keep their sign (d(-I)/d(-V) = dI/dV).
  const double vdb = k.sign * (vd - vb);
  const double vgb = k.sign * (vg - vb);
  const double vsb = k.sign * (vs - vb);

  const double vp = (vgb - k.vth) / k.n;
  const double uf = (vp - vsb) / k.vt;
  const double ur = (vp - vdb) / k.vt;

  double ff;
  double dff;
  double fr;
  double dfr;
  ekv_f(uf, &ff, &dff);
  ekv_f(ur, &fr, &dfr);

  const double i0 = k.ispec * (ff - fr);  // before channel-length modulation
  const double vds = vdb - vsb;
  const double clm = 1.0 + k.lambda * std::fabs(vds);
  const double dclm_dvd = k.lambda * (vds >= 0.0 ? 1.0 : -1.0);

  // Derivatives in mirrored space.
  const double di0_dvg = k.ispec * (dff - dfr) / (k.n * k.vt);
  const double di0_dvs = -k.ispec * dff / k.vt;
  const double di0_dvd = k.ispec * dfr / k.vt;
  // uf = ((vgb - vth)/n - vsb)/vt with vgb = vg - vb, vsb = vs - vb, so
  // d uf/d vb = (1 - 1/n)/vt, identically for ur.
  const double gb_mirror = k.ispec * (dff - dfr) * (1.0 - 1.0 / k.n) / k.vt;

  MosOperatingPoint op;
  op.gm = di0_dvg * clm;
  op.gs = di0_dvs * clm - i0 * dclm_dvd;  // d vds/d vs = -1
  op.gds = di0_dvd * clm + i0 * dclm_dvd;
  op.gb = gb_mirror * clm;
  op.ids = k.sign * (i0 * clm);
  return op;
}

inline void Mosfet::stamp_with(const MosConstants& k, const StampContext& ctx,
                               Stamper& s) const {
  const MosOperatingPoint op =
      evaluate(k, ctx.v(d_), ctx.v(g_), ctx.v(s_), ctx.v(b_));
  // KCL: ids flows (externally) into the drain terminal and out of the
  // source terminal, i.e. ids leaves the drain *node*.
  s.res_node(d_, op.ids);
  s.res_node(s_, -op.ids);

  s.jac_node_node(d_, d_, op.gds);
  s.jac_node_node(d_, g_, op.gm);
  s.jac_node_node(d_, s_, op.gs);
  s.jac_node_node(d_, b_, op.gb);

  s.jac_node_node(s_, d_, -op.gds);
  s.jac_node_node(s_, g_, -op.gm);
  s.jac_node_node(s_, s_, -op.gs);
  s.jac_node_node(s_, b_, -op.gb);
}

}  // namespace dramstress::circuit
