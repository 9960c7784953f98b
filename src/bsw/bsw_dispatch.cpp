#include "bsw/bsw_engine.h"

namespace mem2::bsw {

bool fits_8bit(const ExtendJob& job, const KswParams& p) {
  // All intermediate values live in [0, h0 + qlen*a]; the bias trick adds
  // at most a+b before subtracting.  Lane-index tracking (mj) also needs
  // qlen to fit a byte, and the engine's row state is int16.
  const int peak = job.h0 + job.qlen * p.a + p.a + std::max(p.b, 1);
  return peak <= 255 && job.qlen < 255 && job.tlen < 10000;
}

BswEngine get_engine(util::Isa isa, Precision precision) {
  const util::Isa capped = std::min(isa, util::detect_isa());
  switch (capped) {
    case util::Isa::kAvx512:
      return precision == Precision::k8bit ? kEngineAvx512U8 : kEngineAvx512U16;
    case util::Isa::kAvx2:
      return precision == Precision::k8bit ? kEngineAvx2U8 : kEngineAvx2U16;
    case util::Isa::kScalar:
      break;
  }
  return precision == Precision::k8bit ? kEngineScalarU8 : kEngineScalarU16;
}

}  // namespace mem2::bsw
