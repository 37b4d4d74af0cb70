// CSV rows of doubles, each value spelled as Python's repr(float) spells it.
//
// std::to_chars(double, chars_format::scientific) gives the shortest digits
// that read back as the same double (libstdc++ 11 and later implement it
// with Ryu: Adams, PLDI 2018), which are the digits repr takes from
// David Gay's dtoa in its shortest mode.  put_repr lays them out as repr
// does.  formats.py builds, caches and loads this file through
// gentomo._native; without it the same bytes come from repr itself.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace {

// the longest repr of a double, "-2.2250738585072014e-308", and a newline
constexpr long MAX_VALUE = 25;

// v as repr(v) spells it, written at p; returns the end
char *put_repr(char *p, double v) {
    if (std::isnan(v)) {              // either sign: repr has no "-nan"
        std::memcpy(p, "nan", 3);
        return p + 3;
    }
    if (std::isinf(v)) {
        if (v < 0)
            *p++ = '-';
        std::memcpy(p, "inf", 3);
        return p + 3;
    }
    // [-]d[.ddd]e(+|-)dd[d]: already repr's exponent form
    char s[32];
    const char *end = std::to_chars(s, s + sizeof s, v,
                                    std::chars_format::scientific).ptr;
    const char *e = static_cast<const char *>(std::memchr(s, 'e', end - s));
    int exp = 0;
    for (const char *q = e + 2; q < end; ++q)
        exp = 10 * exp + (*q - '0');
    if (e[1] == '-')
        exp = -exp;
    // repr writes the exponent form when the decimal point would sit at
    // position -4 or before, or past 16 digits, counted from the first digit
    const int point = exp + 1;
    if (point <= -4 || point > 16) {
        std::memcpy(p, s, end - s);
        return p + (end - s);
    }
    const char *q = s;
    if (*q == '-')
        *p++ = *q++;
    char digits[20];
    int n = 0;
    for (; q < e; ++q)
        if (*q != '.')
            digits[n++] = *q;
    if (point <= 0) {                 // 0.000ddd
        *p++ = '0';
        *p++ = '.';
        std::memset(p, '0', -point);
        p += -point;
        std::memcpy(p, digits, n);
        return p + n;
    }
    if (point >= n) {                 // ddd000.0
        std::memcpy(p, digits, n);
        p += n;
        std::memset(p, '0', point - n);
        p += point - n;
        std::memcpy(p, ".0", 2);
        return p + 2;
    }
    std::memcpy(p, digits, point);    // dd.ddd
    p += point;
    *p++ = '.';
    std::memcpy(p, digits + point, n - point);
    return p + (n - point);
}

}  // namespace

// Rows row0 .. row1 - 1 of a (rows, n_cols) row-major table, one line
// "prefix[r]tail[j]repr(values[r][j])\n" per cell, written to out.  Prefix
// r is prefixes[prefix_at[r] : prefix_at[r + 1]], tail j likewise.  Returns
// the bytes written, or -1 before a row that might not fit in cap.
extern "C" long gentomo_csv_rows(const char *prefixes, const int64_t *prefix_at,
                                 const char *tails, const int64_t *tail_at,
                                 long n_cols, const double *values, long row0,
                                 long row1, char *out, long cap) {
    char *p = out;
    for (long r = row0; r < row1; ++r) {
        const char *pre = prefixes + prefix_at[r];
        const long pre_len = prefix_at[r + 1] - prefix_at[r];
        if ((p - out) + n_cols * (pre_len + MAX_VALUE) + tail_at[n_cols] > cap)
            return -1;
        const double *row = values + r * n_cols;
        for (long j = 0; j < n_cols; ++j) {
            std::memcpy(p, pre, pre_len);
            p += pre_len;
            std::memcpy(p, tails + tail_at[j], tail_at[j + 1] - tail_at[j]);
            p += tail_at[j + 1] - tail_at[j];
            p = put_repr(p, row[j]);
            *p++ = '\n';
        }
    }
    return p - out;
}
