#include "circuit/mosfet.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace dramstress::circuit {

Mosfet::Mosfet(std::string name, MosType type, NodeId drain, NodeId gate,
               NodeId source, NodeId bulk, MosfetParams params)
    : Device(std::move(name)),
      type_(type),
      d_(drain),
      g_(gate),
      s_(source),
      b_(bulk),
      p_(params) {
  require(p_.w > 0 && p_.l > 0, "Mosfet: W and L must be positive: " + this->name());
  require(p_.n >= 1.0, "Mosfet: slope factor n must be >= 1: " + this->name());
}

void Mosfet::scale_width(double factor) {
  require(factor > 0.0, "Mosfet: width scale must be positive: " + name());
  p_.w *= factor;
}

double Mosfet::vth(double kelvin) const {
  return p_.vth0 - p_.tcv * (kelvin - p_.tnom);
}

MosConstants Mosfet::constants(double kelvin) const {
  MosConstants k;
  k.sign = (type_ == MosType::Nmos) ? 1.0 : -1.0;
  k.n = p_.n;
  k.lambda = p_.lambda;
  k.vt = units::thermal_voltage(kelvin);
  k.vth = vth(kelvin);
  const double kp = p_.kp_tnom * std::pow(kelvin / p_.tnom, p_.bex);
  k.ispec = 2.0 * p_.n * kp * (p_.w / p_.l) * k.vt * k.vt;
  return k;
}

}  // namespace dramstress::circuit
