// Fast decimal-to-double parsing for the CSV readers.
//
// parse_number() implements the classic exact fast path (Clinger 1990):
// when the significand fits a double exactly (< 2^53) and the decimal
// exponent is within the exactly-representable powers of ten (|e| <= 22),
// one multiply or divide performs the single rounding step — the result
// is correctly rounded, i.e. BIT-IDENTICAL to std::from_chars. Everything
// else (long significands, huge exponents, nan/inf, malformed cells)
// returns false so the caller can fall back to std::from_chars, which
// keeps the accepted/rejected input sets and every parsed bit exactly
// from_chars's. Counter CSVs are overwhelmingly short
// decimals, so the fast path covers nearly every cell.
#pragma once

#include <cstdint>
#include <string_view>

namespace perspector::ingest {

namespace detail {
// 10^0 .. 10^22 are exactly representable as doubles (5^22 < 2^53).
inline constexpr double kPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
}  // namespace detail

/// Parses `cell` as a decimal double. Returns true and sets `out` only
/// when the whole cell was consumed through the exact fast path; the
/// value is then identical to what std::from_chars would produce. On
/// false, `out` is unspecified and the caller must re-parse with
/// std::from_chars (which also owns all error reporting).
inline bool parse_number(std::string_view cell, double& out) {
  const char* p = cell.data();
  const char* const end = p + cell.size();
  if (p == end) return false;

  bool negative = false;
  if (*p == '-') {
    negative = true;
    if (++p == end) return false;
  }

  std::uint64_t mantissa = 0;
  int sig = 0;    // significant digits accumulated into the mantissa
  int exp10 = 0;  // value = mantissa * 10^exp10
  bool any_digits = false;

  while (p != end && *p >= '0' && *p <= '9') {
    const unsigned digit = static_cast<unsigned>(*p - '0');
    any_digits = true;
    if (sig == 0 && digit == 0) {
      ++p;
      continue;  // leading zeros
    }
    if (sig >= 19) return false;  // would overflow the u64 accumulator
    mantissa = mantissa * 10 + digit;
    ++sig;
    ++p;
  }

  if (p != end && *p == '.') {
    ++p;
    bool fraction_digits = false;
    while (p != end && *p >= '0' && *p <= '9') {
      const unsigned digit = static_cast<unsigned>(*p - '0');
      any_digits = true;
      fraction_digits = true;
      --exp10;
      if (sig == 0 && digit == 0) {
        ++p;
        continue;  // leading zeros of a sub-1 value shift the exponent
      }
      if (sig >= 19) return false;
      mantissa = mantissa * 10 + digit;
      ++sig;
      ++p;
    }
    // "1." / "1.e5": implementations differ on a bare decimal point, so
    // defer the accept/reject decision to the from_chars fallback.
    if (!fraction_digits) return false;
  }
  if (!any_digits) return false;

  if (p != end && (*p == 'e' || *p == 'E')) {
    if (++p == end) return false;
    bool exp_negative = false;
    if (*p == '+' || *p == '-') {
      exp_negative = *p == '-';
      if (++p == end) return false;
    }
    int exponent = 0;
    if (!(*p >= '0' && *p <= '9')) return false;
    while (p != end && *p >= '0' && *p <= '9') {
      if (exponent > 9999) return false;
      exponent = exponent * 10 + (*p - '0');
      ++p;
    }
    exp10 += exp_negative ? -exponent : exponent;
  }
  if (p != end) return false;  // trailing bytes: let from_chars reject

  // Exactness condition: one double multiply/divide is the only rounding.
  if (mantissa >= (1ull << 53) || exp10 < -22 || exp10 > 22) return false;
  double value = static_cast<double>(mantissa);
  if (exp10 > 0) {
    value *= detail::kPow10[exp10];
  } else if (exp10 < 0) {
    value /= detail::kPow10[-exp10];
  }
  out = negative ? -value : value;
  return true;
}

}  // namespace perspector::ingest
