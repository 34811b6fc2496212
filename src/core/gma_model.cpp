#include "core/gma_model.hpp"

namespace cyclops::core {

GmaModel GmaModel::with_frozen_origin() const {
  GmaModel frozen = *this;
  if (const auto at_zero = galvo::trace_ideal(params(), 0.0, 0.0)) {
    frozen.frozen_origin_ = at_zero->origin;
  }
  return frozen;
}

GmaModel GmaModel::transformed(const geom::Pose& map) const {
  const galvo::GalvoParams& from = params();
  galvo::GalvoParams p = from;
  p.p0 = map.apply(from.p0);
  p.x0 = map.apply_dir(from.x0);
  p.q1 = map.apply(from.q1);
  p.n1 = map.apply_dir(from.n1);
  p.r1 = map.apply_dir(from.r1);
  p.q2 = map.apply(from.q2);
  p.n2 = map.apply_dir(from.n2);
  p.r2 = map.apply_dir(from.r2);
  GmaModel out(p);
  if (frozen_origin_) out.frozen_origin_ = map.apply(*frozen_origin_);
  return out;
}

}  // namespace cyclops::core
