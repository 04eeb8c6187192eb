#include "tensor/autocast.h"

namespace metalora {

const char* OpPrecisionName(OpPrecision precision) {
  switch (precision) {
    case OpPrecision::kFp32:
      return "fp32";
    case OpPrecision::kBf16:
      return "bf16";
  }
  return "unknown";
}

bool ParseOpPrecision(const std::string& text, OpPrecision* out) {
  if (text == "fp32" || text == "f32" || text == "float32") {
    *out = OpPrecision::kFp32;
    return true;
  }
  if (text == "bf16" || text == "bfloat16") {
    *out = OpPrecision::kBf16;
    return true;
  }
  return false;
}

}  // namespace metalora
