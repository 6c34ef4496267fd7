/* The implicit terms as compiled stencils: the face average A, the flux
   difference D, its transpose G = D^T and the viscous matrix B of
   `operators.implicit_operators`, applied to packed column-major vectors
   [rho; v_1; ...; v_dim] in one code path for 1D and 2D, and the passes of
   the Newton residual, the Jacobian product and the chord's block
   elimination built from them; and the Neumann Laplacian L of
   `operators.laplacian_nd` in the operator of the concentration stage,
   which CG applies.

   `hydro_tendency` is the one place that applies D, G and B to fields:
   the residual calls it at the iterate, with m = (A rho) v, and the
   Jacobian product at the linear terms of a direction, with dm = (A d_rho)
   v + (A rho) d_v and p2'(rho) d_rho, and each forms U - dta T from its
   output.  Only the chord's couplings apply A, D and G again, with the
   coefficients of the assembled Jacobian blocks.

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

/* o[i] = ((0.0 + c[0] x[src[0] + i]) + c[1] x[src[1] + i]) + ... over the
   n terms of a run; inlined with a constant n, the sum of each i stays in a
   register */
static inline void sums(double *o, ptrdiff_t len, const double *c,
                        const double *x, const ptrdiff_t *src, ptrdiff_t n)
{
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < len; i++) {
        double acc = 0.0;
        for (ptrdiff_t k = 0; k < n; k++)
            acc = acc + c[k] * x[src[k] + i];
        o[i] = acc;
    }
}

/* y = X x, dispatched once per run: a run of more than one row in the
   loop of its number of terms, one of the numbers a MAC grid has (A and G
   2, D 2 to 4, B 3, 6, 8 or 9, the Laplacian 3 to 5), and a run of one
   row (a wall or corner row, or the 12- and 13-term viscous rows of 2D
   M = 4, with their explicit zeros) or of any other number of terms in
   the loop with n read at run time */
void stencil_apply(const Op *X, const double *x, double *y)
{
    for (ptrdiff_t r = 0; r < X->nrun; r++) {
        const ptrdiff_t *run = X->run + 4 * r, len = run[1];
        const ptrdiff_t n = run[3] - run[2], *src = X->src + run[2];
        const double *c = X->coef + run[2];
        double *o = y + run[0];
        switch (len == 1 ? 0 : n) {
        case 2: sums(o, len, c, x, src, 2); break;
        case 3: sums(o, len, c, x, src, 3); break;
        case 4: sums(o, len, c, x, src, 4); break;
        case 5: sums(o, len, c, x, src, 5); break;
        case 6: sums(o, len, c, x, src, 6); break;
        case 8: sums(o, len, c, x, src, 8); break;
        case 9: sums(o, len, c, x, src, 9); break;
        default: sums(o, len, c, x, src, n);
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

/* The Newton residual H = [rho - dta T_rho - r_rho; m - dta T_m - r_m]
   of z = [rho; v], m = (A rho) v, T = hydro_tendency(m, p2, v), into out
   (nc + nf); scratch holds 2 nf doubles. */
void hydro_residual(const Hydro *h, const double *z, const double *p2,
                    const double *rhs, double dta, double *out,
                    double *scratch)
{
    const ptrdiff_t nc = h->nc, nf = h->nf;
    const double *v = z + nc;
    double *m = scratch, *tm = out + nc;
    stencil_apply(&h->A, z, m);
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        m[f] = m[f] * v[f];
    hydro_tendency(h, m, p2, v, out, scratch + nf);
#pragma GCC ivdep
    for (ptrdiff_t c = 0; c < nc; c++)
        out[c] = (z[c] - dta * out[c]) - rhs[c];
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        tm[f] = (m[f] - dta * tm[f]) - rhs[nc + f];
}

/* J(z) delta = [d_rho - dta T_rho; dm - dta T_m], the tendency T =
   hydro_tendency(dm, p2'(rho) d_rho, d_v) of its linear terms at
   dm = (A d_rho) v + (A rho) d_v, into out (nc + nf), each value rounded
   as in the form ((D dm) dta + d_rho; (G dp - B d_v) (-dta) + dm).  dp
   holds p2'(rho) on entry and p2'(rho) d_rho on return; scratch holds
   2 nf doubles. */
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
    hydro_tendency(h, dm, dp, d_v, out, t);
#pragma GCC ivdep
    for (ptrdiff_t c = 0; c < nc; c++)
        out[c] = delta[c] - dta * out[c];
#pragma GCC ivdep
    for (ptrdiff_t f = 0; f < nf; f++)
        ov[f] = dm[f] - dta * ov[f];
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

/* The operator of the concentration stage on n cells,
   y = rho x - dta (2 L x - eps L(L x / rho)), L the Neumann Laplacian as
   the stencil of its CSR matrix, each value rounded as in that NumPy form;
   scratch holds 2 n doubles. */
void c_stage_apply(const Op *L, ptrdiff_t n, const double *rho, double dta,
                   double eps, const double *x, double *y, double *scratch)
{
    double *lap = scratch, *u = scratch + n;
    stencil_apply(L, x, lap);
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < n; i++)
        u[i] = lap[i] / rho[i];
    stencil_apply(L, u, y);
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < n; i++)
        y[i] = rho[i] * x[i] - dta * (2.0 * lap[i] - eps * y[i]);
}
