/* WENO5 right and left states of every target of a line, in one pass.

   The samples are an array of shape (outer, n, inner) whose middle axis is
   the line; the states are (outer, count, inner), target t reading the
   samples first-2+t .. first+2+t.  Each state takes the operations of the
   difference form documented in weno.py, in that order, so a build
   without floating-point contraction rounds exactly as that form does. */

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

void weno5_states(const double *ext, ptrdiff_t outer, ptrdiff_t n,
                  ptrdiff_t inner, ptrdiff_t first, ptrdiff_t count,
                  double eps, double d0, double d1, double d2,
                  double *right, double *left)
{
    const ptrdiff_t m = count * inner;
    for (ptrdiff_t o = 0; o < outer; o++) {
        /* target j of the block reads v[j + k inner], k = 0..4 */
        const double *v = ext + (o * n + first - 2) * inner;
        double *r = right + o * m, *l = left + o * m;
        for (ptrdiff_t j = 0; j < m; j++) {
            const double v2 = v[j + 2 * inner];
            const double D0 = v[j + inner] - v[j];
            const double D1 = v2 - v[j + inner];
            const double D2 = v[j + 3 * inner] - v2;
            const double D3 = v[j + 4 * inner] - v[j + 3 * inner];
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
}
