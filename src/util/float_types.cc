#include "util/float_types.h"

namespace flashinfer {

const char* DTypeName(DType dt) noexcept {
  switch (dt) {
    case DType::kF32:
      return "f32";
    case DType::kF16:
      return "f16";
    case DType::kBF16:
      return "bf16";
    case DType::kFP8_E4M3:
      return "e4m3";
    case DType::kFP8_E5M2:
      return "e5m2";
  }
  return "?";
}

}  // namespace flashinfer
