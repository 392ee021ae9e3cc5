#include "jit/spec.h"

#include <cctype>

#include "util/check.h"

namespace flashinfer::jit {

namespace {

bool IsIdentifier(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  }
  return true;
}

}  // namespace

void ValidateSpec(const AttentionSpecDesc& spec) {
  FI_CHECK(IsIdentifier(spec.name));
  for (const auto& [name, value] : spec.extra_params) {
    FI_CHECK(IsIdentifier(name));
  }
}

}  // namespace flashinfer::jit
