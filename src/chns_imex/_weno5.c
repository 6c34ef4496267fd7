/* WENO5 states and Rusanov fluxes of stacks of fields, one pass each.

   A stack is an array of shape (outer, n, inner) whose middle axis is the
   line: n cell values, or n face values with both wall faces.  Beyond a
   wall the line continues as its mirror image times the sign of its field,
   read by index: cell -1-i is cell i, face -i is face i.  Each state takes
   the operations of the difference form documented in weno.py, in that
   order.  Built without floating-point contraction, every operation is a
   correctly rounded add, subtract, multiply or divide (or a multiply by
   +-1, which is exact), so a state rounds exactly as that form does at any
   vector width. */

#include <math.h>
#include <stddef.h>

/* (eps + S + lin^2 / 4)^2 */
static double beta(double lin, double s, double eps)
{
    const double b = lin * lin * 0.25 + s + eps;
    return b * b;
}

/* (a0 c0 + a1 c1 + a2 c2) / (6 (a0 + a1 + a2)), a0 = d0 / e_lo and
   a2 = d2 / e_hi */
static double state(double e_lo, double e_hi, double a1, double d0,
                    double d2, double c0, double c1, double c2)
{
    const double a0 = d0 / e_lo, a2 = d2 / e_hi;
    return (c0 * a0 + c1 * a1 + c2 * a2) / ((a0 + a1 + a2) * 6.0);
}

/* right and left states r[j], l[j] of len targets, target j reading the
   five samples s[k] p[k][j], k = 0..4 */
static void states(const double *const p[5], const double s[5],
                   ptrdiff_t len, double eps, double d0, double d1,
                   double d2, double *r, double *l)
{
    const double *p0 = p[0], *p1 = p[1], *p2 = p[2], *p3 = p[3],
                 *p4 = p[4];
    const double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3], s4 = s[4];
#pragma GCC ivdep
    for (ptrdiff_t j = 0; j < len; j++) {
        const double v0 = s0 * p0[j], v1 = s1 * p1[j], v2 = s2 * p2[j],
                     v3 = s3 * p3[j], v4 = s4 * p4[j];
        const double D0 = v1 - v0, D1 = v2 - v1, D2 = v3 - v2, D3 = v4 - v3;
        const double S0 = (D1 - D0) * (D1 - D0) * (13.0 / 12.0);
        const double S1 = (D2 - D1) * (D2 - D1) * (13.0 / 12.0);
        const double S2 = (D3 - D2) * (D3 - D2) * (13.0 / 12.0);
        const double e0 = beta(3.0 * D1 - D0, S0, eps);
        const double e1 = beta(D1 + D2, S1, eps);
        const double e2 = beta(3.0 * D2 - D3, S2, eps);
        const double a1 = d1 / e1;
        r[j] = state(e0, e2, a1, d0, d2, 5.0 * D1 - 2.0 * D0,
                     D1 + 2.0 * D2, 4.0 * D2 - D3) + v2;
        l[j] = v2 - state(e2, e0, a1, d0, d2, 5.0 * D2 - 2.0 * D3,
                          D2 + 2.0 * D1, 4.0 * D1 - D0);
    }
}

/* The (minus, plus) states of a stack, each (outer, n + 1 - 2 skip, inner):
   at the interfaces 0..n of n cells (skip 0), or at the centres between
   n faces (skip 1).  The targets are the samples skip-1 .. n-skip; minus at
   interface i is the right state of target skip-1+i and plus the left state
   of the target after it; the state of an end target that no interface
   takes goes to junk, inner doubles.  Row o of the stack has the sign
   sign[o / group] beyond the walls; a line needs n >= 3. */
void weno5_lr(const double *f, const double *sign, ptrdiff_t group,
              ptrdiff_t outer, ptrdiff_t n, ptrdiff_t inner, ptrdiff_t skip,
              double eps, double d0, double d1, double d2, double *minus,
              double *plus, double *junk)
{
    const ptrdiff_t first = skip - 1, count = n + 2 - 2 * skip;
    const ptrdiff_t m = (count - 1) * inner;
    for (ptrdiff_t o = 0; o < outer; o++) {
        const double *line = f + o * n * inner;
        double *mo = minus + o * m, *po = plus + o * m;
        for (ptrdiff_t t = 0, run; t < count; t += run) {
            const ptrdiff_t tg = first + t;
            const double *p[5];
            double s[5];
            for (int k = 0; k < 5; k++) {
                ptrdiff_t i = tg - 2 + k;
                s[k] = 1.0;
                if (i < 0 || i >= n) {
                    i = i < 0 ? skip - 1 - i : 2 * n - 1 - skip - i;
                    s[k] = sign[o / group];
                }
                p[k] = line + i * inner;
            }
            /* targets whose samples all lie on the line read consecutive
               rows: one run up to target n-3, which never holds an end */
            run = tg >= 2 && tg + 2 < n ? n - 2 - tg : 1;
            states(p, s, run * inner, eps, d0, d1, d2,
                   t < count - 1 ? mo + t * inner : junk,
                   t > 0 ? po + (t - 1) * inner : junk);
        }
    }
}

/* The Rusanov flux 0.5 (F+ + F-) - (0.5 lam) (u+ - u-) at n points from
   the (minus, plus) states of stacks [F, u, v, rho], n points per field,
   with lam = max(|v-| + s-, |v+| + s+) from the sound speeds s-, s+; and
   with a diffusion array, (0.5 lam) (rho+ - rho-) too.  NumPy's order of
   operations; a NaN speed wins the max, as in np.maximum. */
void rusanov_flux(const double *minus, const double *plus,
                  const double *s_minus, const double *s_plus, ptrdiff_t n,
                  double *flux, double *diffusion)
{
#pragma GCC ivdep
    for (ptrdiff_t j = 0; j < n; j++) {
        const double a = fabs(minus[2 * n + j]) + s_minus[j];
        const double b = fabs(plus[2 * n + j]) + s_plus[j];
        const double half = 0.5 * (a >= b || a != a ? a : b);
        flux[j] = 0.5 * (plus[j] + minus[j])
                  - half * (plus[n + j] - minus[n + j]);
        if (diffusion)
            diffusion[j] = half * (plus[3 * n + j] - minus[3 * n + j]);
    }
}
