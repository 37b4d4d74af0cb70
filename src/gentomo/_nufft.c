/* Interpolation step of the type-2 NUFFT in inverse._nufft_sum.
 *
 * grid is a row-major table of complex values (interleaved re, im), cols
 * complex entries per row.  Point p reads the w x w window whose top-left
 * entry is (start[2p], start[2p + 1]) and weighs row a by wts[2wp + a] and
 * column b by wts[2wp + w + b]:
 *
 *     v[j] = sum_a wts[2wp + a] * row_a[j]          (j over 2w doubles)
 *     out[p] = sum_b wts[2wp + w + b] * (v[2b], v[2b + 1])
 *
 * each sum taken in index order from 0.0, as the numpy loop does.  Build
 * without FMA contraction or reassociation (-ffp-contract=off, no
 * -ffast-math), so both paths give equal bytes.  w is at most 64.
 */

#include <stddef.h>

void gentomo_nufft_interp(const double *grid, ptrdiff_t cols, ptrdiff_t n,
                          ptrdiff_t w, const ptrdiff_t *start,
                          const double *wts, double *out)
{
    for (ptrdiff_t p = 0; p < n; p++) {
        const double *wx = wts + 2 * w * p, *wy = wx + w;
        const double *row =
            grid + 2 * (start[2 * p] * cols + start[2 * p + 1]);
        double v[128];
        for (ptrdiff_t j = 0; j < 2 * w; j++)
            v[j] = 0.0;
        for (ptrdiff_t a = 0; a < w; a++, row += 2 * cols)
            for (ptrdiff_t j = 0; j < 2 * w; j++)
                v[j] += wx[a] * row[j];
        double re = 0.0, im = 0.0;
        for (ptrdiff_t b = 0; b < w; b++) {
            re += wy[b] * v[2 * b];
            im += wy[b] * v[2 * b + 1];
        }
        out[2 * p] = re;
        out[2 * p + 1] = im;
    }
}
