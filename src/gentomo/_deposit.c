/* Fused level evaluation and cloud-in-cell deposit for forward._deposit.
 *
 * For one slab of n source points and one block of `cols` parameter
 * columns, the level of point i under column j is
 *
 *     g = sum_k L[i,k] M[j,k]  (+ a[i] + b[j] when a is not NULL)
 *
 * summed in exactly that order.  It is then scaled, shifted, clamped to
 * [-1, n_bins] and floored as the numpy path does, and its mass is split
 * into a left and a right histogram per column, filled in point order
 * (the order of numpy.bincount).  Bucket k of a column (0 underflow,
 * 1 .. n_bins the bins, n_bins + 1 and n_bins + 2 overflow) is
 * left[k] + right[k - 1]; it is added to the column's row of bins
 * (row-major, cols x n_bins) or, for the three edge buckets, of edges
 * (cols x 3), so summing slabs in slab order gives the buckets of the
 * numpy path.
 *
 * Two slab loops fill the histograms; which one runs is picked per call
 * from d and the CPU.  slab_fused runs the columns outer and does everything
 * for one point in one pass.  slab_tiled, built for x86-64-v4 and -v3 by
 * gcc 12 or later, runs the points in tiles of TILE and the block's
 * columns inner, so one pass over a tile's L, a and mass serves every
 * column.  Per (tile, column) its phase 1 (tile_levels) stores only to two
 * small arrays, so it vectorizes: level, finiteness, scale, shift, clamp,
 * floor and the right weight, giving an int bucket index and a weight per
 * point; phase 2 scatters them in point order.  Phase 1 has one body,
 * built once per literal d from 1 to 4: gcc vectorizes over the points only
 * once it can unroll the loop over k.  With d read at run time the tiled
 * loop ran 1.4-1.7x slower than the fused one, so d > 4 runs slab_fused.
 * Baseline x86-64 (SSE2) has no vector double -> int conversion, and there
 * the tiled loop ran 1.2-2x slower than the fused one, so every other CPU,
 * target and compiler runs slab_fused too.  Build without FMA contraction or
 * reassociation (-ffp-contract=off, no -ffast-math): then both loops round
 * every operation as numpy does, and all give equal bytes.
 *
 * Defining GENTOMO_DEPOSIT_LEVEL to 1 or 3 caps the x86-64 level the pick
 * may use (1: slab_fused only), so a test can run every loop on one host.
 *
 * Returns 0, -1 for a non-finite level (nothing is indexed with it), or -2
 * when scratch memory cannot be allocated or n_bins exceeds the int bucket
 * index range (INT_MAX - 3).
 */
#include <float.h>
#include <limits.h>
#include <math.h>
#include <stdlib.h>

#define TILE 512

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
/* gcc 12 is the first gcc whose target attributes take x86-64-vN */
#define VECTOR_SLABS
#endif
/* The highest x86-64 level the loop may use; tests build it lower to run
 * every variant on one host. */
#ifndef GENTOMO_DEPOSIT_LEVEL
#define GENTOMO_DEPOSIT_LEVEL 4
#endif

/* Deposit the n points of a slab for `cols` columns into the columns'
 * histograms, left and right interleaved (column j's left[k] at
 * hist[j per_col + 2 k], its right[k] just after, per_col = 2 (n_bins + 2));
 * returns 0, leaving hist partly filled, when a level is not finite. */
typedef int slab_fn(const double *L, const double *a, const double *mass,
                    long n, long d, const double *M, const double *b,
                    long cols, double inv_dx, double shift, long n_bins,
                    double *hist);

/* The level of point li under column mj, before the a + b terms. */
static inline double level(const double *li, long d, const double *mj)
{
    double g = li[0] * mj[0];
    for (long k = 1; k < d; k++)
        g += li[k] * mj[k];
    return g;
}

/* Columns outer, one pass per point, for builds that cannot vectorize the
 * levels: each column's histogram stays in L1 while the points stream. */
static int slab_fused(const double *L, const double *a, const double *mass,
                      long n, long d, const double *M, const double *b,
                      long cols, double inv_dx, double shift, long n_bins,
                      double *hist)
{
    size_t per_col = 2 * (size_t)(n_bins + 2);
    double top = (double)n_bins;
    for (long j = 0; j < cols; j++) {
        const double *mj = M + j * d;
        double *h = hist + j * per_col;
        for (long i = 0; i < n; i++) {
            double g = level(L + i * d, d, mj);
            if (a != NULL) {
                g += a[i];
                g += b[j];
            }
            if (!(fabs(g) <= DBL_MAX))
                return 0;
            /* the steps of bin_level (below), with branches for its selects:
             * the clamps seldom bite, and this scalar loop runs 1.3-1.5x
             * faster so */
            double t = g * inv_dx;
            t -= shift;
            if (t < -1.0)
                t = -1.0;
            if (t > top)
                t = top;
            int k = (int)t;
            if ((double)k > t)
                k -= 1;
            double rw = (t - (double)k) * mass[i];
            h[2 * k + 2] += mass[i] - rw;
            h[2 * k + 3] += rw;
        }
    }
    return 1;
}

#ifdef VECTOR_SLABS
/* Bucket (left neighbour + 1, in [0, n_bins + 1]) and right weight of a
 * level g; a NaN t maps to -1 at the lower clamp, so no NaN reaches the
 * int conversion. */
static inline void bin_level(double g, double mass, double inv_dx,
                             double shift, double top, int *bucket,
                             double *right_w)
{
    double t = g * inv_dx;
    t -= shift;
    t = t >= -1.0 ? t : -1.0;
    t = t <= top ? t : top;
    int k = (int)t;
    k -= (double)k > t;
    *right_w = (t - (double)k) * mass;
    *bucket = k + 1;
}

/* Phase 1 for n <= TILE points and one column (mj, bj): stores only to
 * bucket and right_w, so it vectorizes when d is a literal; returns 0 when
 * a level is not finite. */
static inline __attribute__((always_inline)) int
tile_levels(const double *restrict L, const double *restrict a,
            const double *restrict mass, long n, long d,
            const double *restrict mj, double bj, double inv_dx,
            double shift, double top, int *restrict bucket,
            double *restrict right_w)
{
    int finite = 1;
    for (long i = 0; i < n; i++) {
        double g = level(L + i * d, d, mj);
        if (a != NULL) {
            g += a[i];
            g += bj;
        }
        finite &= fabs(g) <= DBL_MAX;
        bin_level(g, mass[i], inv_dx, shift, top, bucket + i, right_w + i);
    }
    return finite;
}

/* Phase 1 of slab_tiled for tile i0 and column j, with d spelled dd: each
 * literal dd gets a vectorized copy of its own. */
#define TILE_LEVELS(dd)                                                     \
    tile_levels(L + i0 * d, a == NULL ? NULL : a + i0, m, nt, dd, M + j * d, \
                a == NULL ? 0.0 : b[j], inv_dx, shift, top, bucket, right_w)

/* Point tiles outer, columns inner, for d <= 4: one pass over a tile's L,
 * a and mass serves every column; per (tile, column) phase 1, then phase 2,
 * the scatter in point order. */
static inline __attribute__((always_inline)) int
slab_tiled(const double *L, const double *a, const double *mass, long n,
           long d, const double *M, const double *b, long cols,
           double inv_dx, double shift, long n_bins, double *hist)
{
    size_t per_col = 2 * (size_t)(n_bins + 2);
    double top = (double)n_bins;
    int bucket[TILE];
    double right_w[TILE];
    for (long i0 = 0; i0 < n; i0 += TILE) {
        long nt = n - i0 < TILE ? n - i0 : TILE;
        const double *m = mass + i0;
        for (long j = 0; j < cols; j++) {
            /* 2-d, the common case, first; d <= 4 here */
            if (!(d == 2   ? TILE_LEVELS(2)
                  : d == 1 ? TILE_LEVELS(1)
                  : d == 3 ? TILE_LEVELS(3)
                           : TILE_LEVELS(4)))
                return 0;
            double *h = hist + j * per_col;
            for (long i = 0; i < nt; i++) {
                h[2 * bucket[i]] += m[i] - right_w[i];
                h[2 * bucket[i] + 1] += right_w[i];
            }
        }
    }
    return 1;
}

#define SLAB_FOR(arch, name)                                                \
    static __attribute__((target("arch=" arch))) int                       \
    name(const double *L, const double *a, const double *mass, long n,     \
         long d, const double *M, const double *b, long cols,              \
         double inv_dx, double shift, long n_bins, double *hist)            \
    {                                                                       \
        return slab_tiled(L, a, mass, n, d, M, b, cols, inv_dx, shift,     \
                          n_bins, hist);                                    \
    }
SLAB_FOR("x86-64-v4", slab_v4)
SLAB_FOR("x86-64-v3", slab_v3)
#endif

/* The slab loop for this CPU. */
static slab_fn *pick_slab(void)
{
#ifdef VECTOR_SLABS
    __builtin_cpu_init();
    if (GENTOMO_DEPOSIT_LEVEL >= 4 && __builtin_cpu_supports("x86-64-v4"))
        return slab_v4;
    if (GENTOMO_DEPOSIT_LEVEL >= 3 && __builtin_cpu_supports("x86-64-v3"))
        return slab_v3;
#endif
    return slab_fused;
}

int gentomo_deposit(const double *L, const double *a, const double *mass,
                    long n, long d, const double *M, const double *b,
                    long cols, double inv_dx, double shift, long n_bins,
                    double *bins, double *edges)
{
    if (n_bins > INT_MAX - 3)
        return -2;
    size_t per_col = 2 * (size_t)(n_bins + 2);
    double *hist = calloc((size_t)cols * per_col, sizeof *hist);
    if (hist == NULL)
        return -2;
    slab_fn *slab = d > 4 ? slab_fused : pick_slab();
    if (!slab(L, a, mass, n, d, M, b, cols, inv_dx, shift, n_bins, hist)) {
        free(hist);
        return -1;
    }
    for (long j = 0; j < cols; j++) {
        const double *h = hist + j * per_col;
        double *row = bins + j * n_bins, *edge = edges + 3 * j;
        edge[0] += h[0];
        for (long k = 1; k <= n_bins; k++)
            row[k - 1] += h[2 * k] + h[2 * k - 1];
        edge[1] += h[2 * n_bins + 2] + h[2 * n_bins + 1];
        edge[2] += h[2 * n_bins + 3];
    }
    free(hist);
    return 0;
}
