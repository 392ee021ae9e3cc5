// Lightweight assertion utilities used across the library.
//
// FI_CHECK(cond) aborts with a source location when `cond` is false; the
// _EQ/_LE/... forms print both operands. These checks are active in all build
// types: the library is a research artifact and silent corruption is worse
// than a crash. Kept free of <iostream>, <sstream> and <string>: every
// JIT-compiled kernel parses this header.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace flashinfer::detail {

[[noreturn]] inline void CheckFail(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "[FI_CHECK failed] %s:%d: %s\n", file, line, msg);
  std::abort();
}

/// Formats one FI_CHECK_* operand into `buf`.
template <typename T>
void FormatCheckOperand(char* buf, size_t size, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    FormatCheckOperand(buf, size, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(buf, size, "%.9g", static_cast<double>(v));
  } else if constexpr (std::is_signed_v<T>) {
    std::snprintf(buf, size, "%lld", static_cast<long long>(v));
  } else {
    static_assert(std::is_arithmetic_v<T>, "FI_CHECK_* operands must be numbers or enums");
    std::snprintf(buf, size, "%llu", static_cast<unsigned long long>(v));
  }
}

/// Out of line and cold so that a check costs its call site one compare and
/// one call.
template <typename A, typename B>
[[noreturn, gnu::cold, gnu::noinline]] void CheckBinopFail(const char* file, int line,
                                                           const char* expr, const A& a,
                                                           const B& b) {
  char lhs[32];
  char rhs[32];
  char msg[1024];
  FormatCheckOperand(lhs, sizeof(lhs), a);
  FormatCheckOperand(rhs, sizeof(rhs), b);
  std::snprintf(msg, sizeof(msg), "%s (%s vs %s)", expr, lhs, rhs);
  CheckFail(file, line, msg);
}

}  // namespace flashinfer::detail

#define FI_CHECK(cond)                                                              \
  do {                                                                              \
    if (!(cond)) ::flashinfer::detail::CheckFail(__FILE__, __LINE__, #cond);        \
  } while (0)

#define FI_CHECK_BINOP(a, b, op)                                                    \
  do {                                                                              \
    auto fi_chk_a_ = (a);                                                           \
    auto fi_chk_b_ = (b);                                                           \
    if (!(fi_chk_a_ op fi_chk_b_)) {                                                \
      ::flashinfer::detail::CheckBinopFail(__FILE__, __LINE__, #a " " #op " " #b,   \
                                           fi_chk_a_, fi_chk_b_);                   \
    }                                                                               \
  } while (0)

#define FI_CHECK_EQ(a, b) FI_CHECK_BINOP(a, b, ==)
#define FI_CHECK_NE(a, b) FI_CHECK_BINOP(a, b, !=)
#define FI_CHECK_LT(a, b) FI_CHECK_BINOP(a, b, <)
#define FI_CHECK_LE(a, b) FI_CHECK_BINOP(a, b, <=)
#define FI_CHECK_GT(a, b) FI_CHECK_BINOP(a, b, >)
#define FI_CHECK_GE(a, b) FI_CHECK_BINOP(a, b, >=)
