/* Fused level evaluation and cloud-in-cell deposit for forward._deposit.
 *
 * For one slab of n source points and one block of `cols` parameter
 * columns, the level of point i under column j is
 *
 *     g = sum_k L[i,k] M[j,k]  (+ a[i] + b[j] when a is not NULL)
 *
 * summed in exactly that order.  It is then scaled, shifted, clamped to
 * [-1, n_bins] and floored as the numpy path does, and its mass is split
 * into a left and a right accumulator per column, filled in point order
 * (the order of numpy.bincount).  Each column's slot k of acc (row-major,
 * cols x (n_bins + 3)) gains left[k] + right[k - 1], so summing slabs in
 * slab order gives the buckets of the numpy path.  Build without FMA
 * contraction or reassociation, so every operation rounds as numpy does.
 *
 * Returns 0, -1 for a non-finite level (nothing is indexed with it), or -2
 * when scratch memory cannot be allocated.
 */
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

int gentomo_deposit(const double *L, const double *a, const double *mass,
                    long n, long d, const double *M, const double *b,
                    long cols, double inv_dx, double shift, long n_bins,
                    double *acc)
{
    long slots = n_bins + 3;
    double *left = malloc(2 * (size_t)(n_bins + 2) * sizeof *left);
    if (left == NULL)
        return -2;
    double *right = left + n_bins + 2;
    for (long j = 0; j < cols; j++) {
        const double *mj = M + j * d;
        memset(left, 0, 2 * (size_t)(n_bins + 2) * sizeof *left);
        for (long i = 0; i < n; i++) {
            const double *li = L + i * d;
            double g = li[0] * mj[0];
            for (long k = 1; k < d; k++)
                g += li[k] * mj[k];
            if (a != NULL) {
                g += a[i];
                g += b[j];
            }
            if (!(fabs(g) <= DBL_MAX)) {
                free(left);
                return -1;
            }
            double t = g * inv_dx;
            t -= shift;
            if (t < -1.0)
                t = -1.0;
            if (t > (double)n_bins)
                t = (double)n_bins;
            long k = (long)t;
            if ((double)k > t)
                k -= 1;
            double right_w = (t - (double)k) * mass[i];
            left[k + 1] += mass[i] - right_w;
            right[k + 1] += right_w;
        }
        double *out = acc + j * slots;
        out[0] += left[0];
        for (long k = 1; k <= n_bins + 1; k++)
            out[k] += left[k] + right[k - 1];
        out[n_bins + 2] += right[n_bins + 1];
    }
    free(left);
    return 0;
}
