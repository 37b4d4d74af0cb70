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
 * point.  Phase 2 scatters them in point order, for two columns at once:
 * in the smooth sources the benchmarks run, most consecutive points of a
 * column share a bucket, so each column's scatter is one chain of
 * read-modify-writes on one address, and interleaving two columns runs
 * two chains side by side.  Each column still adds its masses in point
 * order.  A block's odd last column is scattered alone.  Phase 1 has one
 * body, called from one site per literal d from 1 to 4: gcc vectorizes
 * over the points only once it can unroll the loop over k.  With d read at
 * run time the tiled loop ran 1.4-1.7x slower than the fused one, so d > 4
 * runs slab_fused.  Baseline x86-64 (SSE2) has no vector double -> int
 * conversion or vector floor, and there the tiled loop ran 1.2-2x slower
 * than the fused one, so every other CPU, target and compiler runs
 * slab_fused too.  Build without FMA contraction or reassociation
 * (-ffp-contract=off, no -ffast-math): then both loops round every
 * operation as numpy does, and all give equal bytes.  Phase 1 vectorizes
 * its floor only under -fno-trapping-math, which lets gcc assume that no
 * program reads the floating-point exception flags; it changes no
 * rounding.
 *
 * Defining GENTOMO_DEPOSIT_LEVEL to 1 or 3 caps the x86-64 level the pick
 * may use (1: slab_fused only), so a test can run every loop on one host.
 *
 * gentomo_deposit returns 0, -1 for a non-finite level (nothing is indexed
 * with it), or -2 when scratch memory cannot be allocated or n_bins exceeds
 * the int bucket index range (INT_MAX - 3).  gentomo_deposit_loop(d) names
 * the slab loop it runs for d: 1 for slab_fused, 3 or 4 for slab_tiled
 * built for x86-64-v3 or -v4.
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
             * faster so; and with the int round trip for its floor, which
             * baseline x86-64 has no instruction for */
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
 * int conversion.  On [-1, n_bins] f equals slab_fused's k, so the weights
 * are its weights. */
static inline void bin_level(double g, double mass, double inv_dx,
                             double shift, double top, int *bucket,
                             double *right_w)
{
    double t = g * inv_dx;
    t -= shift;
    t = t >= -1.0 ? t : -1.0;
    t = t <= top ? t : top;
    double f = floor(t);
    *right_w = (t - f) * mass;
    *bucket = (int)f + 1;
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

/* Phase 1 of slab_tiled for tile i0 and column j into bucket[c] and
 * right_w[c], with d spelled dd: each literal dd gets a vectorized copy of
 * its own. */
#define TILE_LEVELS(dd)                                                     \
    tile_levels(L + i0 * d, a == NULL ? NULL : a + i0, m, nt, dd, M + j * d, \
                a == NULL ? 0.0 : b[j], inv_dx, shift, top, bucket[c],      \
                right_w[c])

/* Point tiles outer, columns inner, for d <= 4: one pass over a tile's L,
 * a and mass serves every column; per (tile, pair of columns) phase 1 for
 * each column, then phase 2, the scatter of both in point order. */
static inline __attribute__((always_inline)) int
slab_tiled(const double *L, const double *a, const double *mass, long n,
           long d, const double *M, const double *b, long cols,
           double inv_dx, double shift, long n_bins, double *hist)
{
    size_t per_col = 2 * (size_t)(n_bins + 2);
    double top = (double)n_bins;
    int bucket[2][TILE];
    double right_w[2][TILE];
    for (long i0 = 0; i0 < n; i0 += TILE) {
        long nt = n - i0 < TILE ? n - i0 : TILE;
        const double *m = mass + i0;
        for (long j0 = 0; j0 < cols; j0 += 2) {
            long pair = j0 + 1 < cols;
            /* one call site per d for both columns: a copy per column
             * doubled the compile time */
            for (long c = 0; c <= pair; c++) {
                long j = j0 + c;
                /* 2-d, the common case, first; d <= 4 here */
                if (!(d == 2   ? TILE_LEVELS(2)
                      : d == 1 ? TILE_LEVELS(1)
                      : d == 3 ? TILE_LEVELS(3)
                               : TILE_LEVELS(4)))
                    return 0;
            }
            double *h0 = hist + j0 * per_col;
            const int *k0 = bucket[0];
            const double *w0 = right_w[0];
            if (pair) {
                double *h1 = h0 + per_col;
                const int *k1 = bucket[1];
                const double *w1 = right_w[1];
                for (long i = 0; i < nt; i++) {
                    double mi = m[i];
                    h0[2 * k0[i]] += mi - w0[i];
                    h0[2 * k0[i] + 1] += w0[i];
                    h1[2 * k1[i]] += mi - w1[i];
                    h1[2 * k1[i] + 1] += w1[i];
                }
            } else {
                for (long i = 0; i < nt; i++) {
                    h0[2 * k0[i]] += m[i] - w0[i];
                    h0[2 * k0[i] + 1] += w0[i];
                }
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

/* The slab loop for d on this CPU, with its number for
 * gentomo_deposit_loop in *loop. */
static slab_fn *pick_slab(long d, int *loop)
{
#ifdef VECTOR_SLABS
    if (d <= 4) {
        __builtin_cpu_init();
        *loop = 4;
        if (GENTOMO_DEPOSIT_LEVEL >= 4 && __builtin_cpu_supports("x86-64-v4"))
            return slab_v4;
        *loop = 3;
        if (GENTOMO_DEPOSIT_LEVEL >= 3 && __builtin_cpu_supports("x86-64-v3"))
            return slab_v3;
    }
#endif
    *loop = 1;
    return slab_fused;
}

int gentomo_deposit_loop(long d)
{
    int loop;
    pick_slab(d, &loop);
    return loop;
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
    int loop;
    slab_fn *slab = pick_slab(d, &loop);
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
