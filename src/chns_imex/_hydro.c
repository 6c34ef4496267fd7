/* The implicit hydro terms of the Newton solve as compiled stencils: the
   face average A, the flux difference D, its transpose G = D^T and the
   viscous matrix B of `operators.implicit_operators`, applied to packed
   column-major vectors [rho; v_1; ...; v_dim] in one code path for 1D and
   2D, and the passes of the Newton residual, the Jacobian product and the
   chord's block elimination built from them.

   An operator is a list of runs, read off its CSR matrix by
   `operators.stencils`: run r covers the rows out .. out + len - 1, and
   row out + i takes the terms k0 .. k1 - 1 of the run, term k being
   coef[k] * x[src[k] + i].  On a MAC grid a run is the rows of one line
   whose stencil is the same shifted by one (the interior of a line, or
   its wall rows), so every term reads a contiguous stretch of x.  Each
   row starts at +0.0 and adds its terms in the stored (sorted) column
   order of its CSR row, as a CSR product does, and built without
   contraction every operation is a correctly rounded add or multiply, so
   each row is byte for byte that product's. */

#include <stddef.h>
#include <string.h>

typedef struct {
    ptrdiff_t nrun;
    const ptrdiff_t *run;       /* out, len, k0, k1 per run */
    const ptrdiff_t *src;
    const double *coef;
} Op;

/* The operators of one grid on nc cells and nf interior faces; A and G
   share their runs and sources (both take the two cells of each face). */
typedef struct {
    ptrdiff_t nc, nf;
    Op A, D, G, B;
} Hydro;

/* The kept vectors of a Newton chord at its point [rho; v], one array:
   1/d (nc), v (nf), p2'(rho) (nc) and A rho (nf). */
typedef struct {
    const double *inv_d, *v, *dp, *rho_f;
} Chord;

static Chord chord(const Hydro *h, const double *c)
{
    const Chord ch = {c, c + h->nc, c + h->nc + h->nf,
                      c + 2 * h->nc + h->nf};
    return ch;
}

/* o[i] = ((0.0 + c[0] s[0][i]) + c[1] s[1][i]) + ... over n terms;
   inlined with a constant n, the sum of each i stays in a register */
static inline void sums(double *o, ptrdiff_t len, const double *c,
                        const double *const *s, const int n)
{
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < len; i++) {
        double acc = 0.0;
        for (int k = 0; k < n; k++)
            acc = acc + c[k] * s[k][i];
        o[i] = acc;
    }
}

/* y = X x: a run of one row (a wall or corner row), or of more than
   MAXTERM terms (only the 2D viscous rows of M = 4, with their explicit
   zeros), row by row in scalar sums, and every other run in the vector
   loop of its number of terms */
enum { MAXTERM = 9 };
void stencil_apply(const Op *X, const double *x, double *y)
{
    for (ptrdiff_t r = 0; r < X->nrun; r++) {
        const ptrdiff_t *run = X->run + 4 * r, len = run[1];
        const ptrdiff_t n = run[3] - run[2], *src = X->src + run[2];
        const double *c = X->coef + run[2], *s[MAXTERM];
        double *o = y + run[0];
        if (len == 1 || n > MAXTERM) {
            for (ptrdiff_t i = 0; i < len; i++) {
                double acc = 0.0;
                for (ptrdiff_t k = 0; k < n; k++)
                    acc = acc + c[k] * x[src[k] + i];
                o[i] = acc;
            }
            continue;
        }
        for (ptrdiff_t k = 0; k < n; k++)
            s[k] = x + src[k];
        switch (n) {
        case 1: sums(o, len, c, s, 1); break;
        case 2: sums(o, len, c, s, 2); break;
        case 3: sums(o, len, c, s, 3); break;
        case 4: sums(o, len, c, s, 4); break;
        case 5: sums(o, len, c, s, 5); break;
        case 6: sums(o, len, c, s, 6); break;
        case 7: sums(o, len, c, s, 7); break;
        case 8: sums(o, len, c, s, 8); break;
        case 9: sums(o, len, c, s, 9); break;
        }
    }
}

/* y = X x with term k of row o read as (a_k u[o] - g_k w[s] dta) x[s],
   a from X and g from Y (the chord's J_vr = diag(v) A - dta G diag(p2')),
   or, without Y, as (d_k w[s] dta) x[s] (J_rv = dta D diag(A rho)), s the
   source index: each coefficient as the sparse products of
   `HydroSolver.jacobian` round it.  A row adds its terms one pass each. */
static void couple(const Op *X, const Op *Y, const double *u,
                   const double *w, double dta, const double *x, double *y)
{
    for (ptrdiff_t r = 0; r < X->nrun; r++) {
        const ptrdiff_t *run = X->run + 4 * r, len = run[1];
        double *o = y + run[0];
        for (ptrdiff_t i = 0; i < len; i++)
            o[i] = 0.0;
        for (ptrdiff_t k = run[2]; k < run[3]; k++) {
            const double c = X->coef[k], *s = x + X->src[k];
            const double *ws = w + X->src[k];
            if (Y) {
                const double g = Y->coef[k], *uo = u + run[0];
#pragma GCC ivdep
                for (ptrdiff_t i = 0; i < len; i++)
                    o[i] = o[i] + (c * uo[i] - g * ws[i] * dta) * s[i];
            } else {
#pragma GCC ivdep
                for (ptrdiff_t i = 0; i < len; i++)
                    o[i] = o[i] + c * ws[i] * dta * s[i];
            }
        }
    }
}

/* The implicit hydro tendency [-(D m); G p2 - B v] into out (nc + nf);
   scratch holds nf doubles. */
void hydro_tendency(const Hydro *h, const double *m, const double *p2,
                    const double *v, double *out, double *scratch)
{
    double *tm = out + h->nc;
    stencil_apply(&h->D, m, out);
#pragma GCC ivdep
    for (ptrdiff_t c = 0; c < h->nc; c++)
        out[c] = -out[c];
    stencil_apply(&h->G, p2, tm);
    stencil_apply(&h->B, v, scratch);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < h->nf; f++)
        tm[f] = tm[f] - scratch[f];
}

/* The Newton residual H = [rho - dta (-(D m)) - r_rho;
   m - dta (G p2 - B v) - r_m] of z = [rho; v], m = (A rho) v, into out
   (nc + nf); scratch holds 2 nf doubles. */
void hydro_residual(const Hydro *h, const double *z, const double *p2,
                    const double *rhs, double dta, double *out,
                    double *scratch)
{
    const ptrdiff_t nc = h->nc, nf = h->nf;
    const double *v = z + nc;
    double *m = scratch, *bv = scratch + nf, *tm = out + nc;
    stencil_apply(&h->A, z, m);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        m[f] = m[f] * v[f];
    stencil_apply(&h->D, m, out);
#pragma GCC ivdep
    for (ptrdiff_t c = 0; c < nc; c++)
        out[c] = (z[c] - dta * -out[c]) - rhs[c];
    stencil_apply(&h->G, p2, tm);
    stencil_apply(&h->B, v, bv);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        tm[f] = (m[f] - dta * (tm[f] - bv[f])) - rhs[nc + f];
}

/* J(z) delta = [d_rho + dta D dm; dm - dta (G (p2' d_rho) - B d_v)],
   dm = (A d_rho) v + (A rho) d_v, as ((D dm) dta + d_rho;
   ((G dp - B d_v) (-dta)) + dm), into out (nc + nf).  dp holds p2'(rho)
   on entry and p2'(rho) d_rho on return; scratch holds 2 nf doubles. */
void hydro_jacobian_times(const Hydro *h, const double *z,
                          const double *delta, double *dp, double dta,
                          double *out, double *scratch)
{
    const ptrdiff_t nc = h->nc, nf = h->nf;
    const double *v = z + nc, *d_v = delta + nc;
    double *dm = scratch, *t = scratch + nf, *ov = out + nc;
    stencil_apply(&h->A, delta, dm);
    stencil_apply(&h->A, z, t);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        dm[f] = dm[f] * v[f] + t[f] * d_v[f];
#pragma GCC ivdep
    for (ptrdiff_t c = 0; c < nc; c++)
        dp[c] = dp[c] * delta[c];
    stencil_apply(&h->D, dm, out);
#pragma GCC ivdep
    for (ptrdiff_t c = 0; c < nc; c++)
        out[c] = out[c] * dta + delta[c];
    stencil_apply(&h->G, dp, ov);
    stencil_apply(&h->B, d_v, t);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        ov[f] = (ov[f] - t[f]) * -dta + dm[f];
}

/* The right-hand side b_v - J_vr (b_rho / d) of the chord's Schur solve,
   into t (nf), with the chord's vectors c at its dta; scratch holds nc
   doubles. */
void chord_forward(const Hydro *h, const double *c, double dta,
                   const double *b, double *t, double *scratch)
{
    const Chord ch = chord(h, c);
    const double *b_v = b + h->nc;
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < h->nc; i++)
        scratch[i] = ch.inv_d[i] * b[i];
    couple(&h->A, &h->G, ch.v, ch.dp, dta, scratch, t);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < h->nf; f++)
        t[f] = b_v[f] - t[f];
}

/* The chord's solution [(b_rho - J_rv dv) / d; dv] of b, given the
   velocities dv of its Schur solve, into out (nc + nf). */
void chord_back(const Hydro *h, const double *c, double dta,
                const double *b, const double *dv, double *out)
{
    const Chord ch = chord(h, c);
    couple(&h->D, NULL, NULL, ch.rho_f, dta, dv, out);
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < h->nc; i++)
        out[i] = ch.inv_d[i] * (b[i] - out[i]);
    memcpy(out + h->nc, dv, h->nf * sizeof(double));
}
