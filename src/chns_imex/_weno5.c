/* The compiled passes of the explicit tendency: sixth-order transfers and
   the products that form its stacks, WENO5 states, the Rusanov fluxes
   with their differences, and the explicit sources (gravity, capillarity
   and the concave Cahn-Hilliard term) added into them, so only the powers
   of the equation of state stay NumPy calls.

   A stack is an array of shape (rows, outer, n, inner) whose third axis is
   the line: n cell values, or n face values with both wall faces.  Beyond a
   wall the line continues as its mirror image times the sign of its row:
   cell -1-i is cell i, face -i is face i.  A pass copies each line into
   scratch with three mirror rows on each side, along either sweep axis,
   and runs over all its targets there.  Each state takes the operations
   of the difference form documented in weno.py, in that order, and every
   other value those of the NumPy form the tests keep, in that order.
   Built without floating-point contraction, every operation is a
   correctly rounded add, subtract, multiply or divide (or the multiply of
   a mirror row by +-1, which is exact), so a value rounds exactly as that
   form does at any vector width. */

#include <math.h>
#include <stddef.h>
#include <string.h>

/* the sixth-order midpoint weights; dividing by 256 is exact */
static const double MU6[6] = {3.0 / 256, -25.0 / 256, 150.0 / 256,
                              150.0 / 256, -25.0 / 256, 3.0 / 256};

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
   five samples b[j + k inner], k = 0..4 */
static void states(const double *b, ptrdiff_t inner, ptrdiff_t len,
                   double eps, double d0, double d1, double d2, double *r,
                   double *l)
{
    const double *p0 = b, *p1 = b + inner, *p2 = b + 2 * inner,
                 *p3 = b + 3 * inner, *p4 = b + 4 * inner;
#pragma GCC ivdep
    for (ptrdiff_t j = 0; j < len; j++) {
        const double v0 = p0[j], v1 = p1[j], v2 = p2[j], v3 = p3[j],
                     v4 = p4[j];
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

/* Rows 3 .. n+2 of b, each inner doubles, hold a line of n samples; rows
   0..2 and n+3 .. n+5 get its three mirror samples on each side: beyond
   each end the line continues as its mirror image times sign, about its
   end (skip 0) or about its end sample (skip 1). */
static void ghosts(double *b, ptrdiff_t n, ptrdiff_t inner, ptrdiff_t skip,
                   double sign)
{
    for (ptrdiff_t j = 1; j <= 3; j++) {
        double *lo = b + (3 - j) * inner, *hi = b + (2 + n + j) * inner;
        const double *lo_in = b + (2 + j + skip) * inner;
        const double *hi_in = b + (3 + n - j - skip) * inner;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < inner; i++) {
            lo[i] = sign * lo_in[i];
            hi[i] = sign * hi_in[i];
        }
    }
}

/* The (minus, plus) states of a stack, each (rows, outer, n + 1 - 2 skip,
   inner) with row g at minus + g * out_rows: at the interfaces 0..n of n
   cells (skip 0), or at the centres between n faces (skip 1).  Row g of
   the stack starts at f + g * f_rows and has the sign sign[g] beyond the
   walls.  The targets are the samples skip-1 .. n-skip; minus at interface
   i is the right state of target skip-1+i and plus the left state of the
   target after it.  Each line is copied with its mirror rows into scratch,
   and one call takes the states of all its targets there.  A line needs
   n >= 3, and scratch (3 n + 10) inner doubles. */
void weno5_lr(const double *f, ptrdiff_t f_rows, const double *sign,
              ptrdiff_t rows, ptrdiff_t outer, ptrdiff_t n, ptrdiff_t inner,
              ptrdiff_t skip, double eps, double d0, double d1, double d2,
              double *minus, double *plus, ptrdiff_t out_rows,
              double *scratch)
{
    const ptrdiff_t count = n + 2 - 2 * skip, m = (count - 1) * inner;
    double *r = scratch + (n + 6) * inner, *l = r + count * inner;
    for (ptrdiff_t g = 0; g < rows; g++)
    for (ptrdiff_t o = 0; o < outer; o++) {
        memcpy(scratch + 3 * inner, f + g * f_rows + o * n * inner,
               n * inner * sizeof(double));
        ghosts(scratch, n, inner, skip, sign[g]);
        states(scratch + skip * inner, inner, count * inner, eps, d0, d1,
               d2, r, l);
        memcpy(minus + g * out_rows + o * m, r, m * sizeof(double));
        memcpy(plus + g * out_rows + o * m, l + inner, m * sizeof(double));
    }
}

/* out[j] = the MU6-weighted sum of b[j + k inner], k = 0..5, in order */
static void mu6(const double *b, ptrdiff_t inner, ptrdiff_t len,
                double *out)
{
    const double *p0 = b, *p1 = b + inner, *p2 = b + 2 * inner,
                 *p3 = b + 3 * inner, *p4 = b + 4 * inner,
                 *p5 = b + 5 * inner;
#pragma GCC ivdep
    for (ptrdiff_t j = 0; j < len; j++) {
        double acc = MU6[0] * p0[j];
        acc = acc + MU6[1] * p1[j];
        acc = acc + MU6[2] * p2[j];
        acc = acc + MU6[3] * p3[j];
        acc = acc + MU6[4] * p4[j];
        out[j] = acc + MU6[5] * p5[j];
    }
}

/* The sixth-order transfer along the middle axis of lines (outer, ., inner)
   across M cells: cell values (walls 0) to the faces 0..M, face i from
   cells i-3..i+2, or interior face values (walls 1, M-1 per line) to the
   cells, cell i from faces i-2..i+3 with zero wall faces; mirrored beyond
   the walls times sign.  Each line is copied with its mirror rows into
   scratch, whose wall faces are set to zero once, and one call takes all
   its targets there.  scratch holds (M + 7) inner doubles. */
void transfer6(const double *in, ptrdiff_t outer, ptrdiff_t M,
               ptrdiff_t inner, ptrdiff_t walls, double sign,
               double *scratch, double *out)
{
    const ptrdiff_t n = M + walls, count = M + 1 - walls;
    const ptrdiff_t len = (n - 2 * walls) * inner;
    if (walls) {
        memset(scratch + 3 * inner, 0, inner * sizeof(double));
        memset(scratch + (2 + n) * inner, 0, inner * sizeof(double));
    }
    for (ptrdiff_t o = 0; o < outer; o++) {
        memcpy(scratch + (3 + walls) * inner, in + o * len,
               len * sizeof(double));
        ghosts(scratch, n, inner, walls, sign);
        mu6(scratch + walls * inner, inner, count * inner,
            out + o * count * inner);
    }
}

/* the shape (outer, ., inner) of a field of shape (M, N) along axis k */
static void split(ptrdiff_t k, ptrdiff_t M, ptrdiff_t N, ptrdiff_t *outer,
                  ptrdiff_t *inner)
{
    *outer = k ? M : 1;
    *inner = k ? 1 : N;
}

/* Every stack of an explicit tendency, in one buffer x of rows 0..3, row r
   at x + r * width, from the density rho and phase momentum q at the cells
   (M, N), N = M in 2D and 1 in 1D, and the interior-face velocities v[k]
   (M-1 along axis k).  Stack s starts at column cols[s]; in order, per
   axis k, the cell stack [q v_k, q, v_k, rho] with v_k transferred to the
   cells, then per axis the face stack [rho v_k^2, rho v_k, v_k, rho] at
   the faces 0..M along k with rho transferred there (p1 is added to its
   first row by the caller), then in 2D per axis k the corner stack
   [rho v_1 v_2, rho v_k, v_j, rho] at the interior k-faces, v_j the face
   average along k of v[j] transferred to the cells along j, the other
   axis.  scratch holds (M + 7) M + (M - 1)^2 doubles. */
void rusanov_stacks(ptrdiff_t dim, ptrdiff_t M, const double *rho,
                    const double *q, const double *const *v,
                    const ptrdiff_t *cols, ptrdiff_t width, double *x,
                    double *scratch)
{
    const ptrdiff_t N = dim == 2 ? M : 1, cells = M * N;
    for (ptrdiff_t k = 0; k < dim; k++) {
        ptrdiff_t outer, inner;
        split(k, M, N, &outer, &inner);
        double *c = x + cols[k], *f = x + cols[dim + k];
        /* the cell stack */
        transfer6(v[k], outer, M, inner, 1, -1.0, scratch, c + 2 * width);
        memcpy(c + width, q, cells * sizeof(double));
        memcpy(c + 3 * width, rho, cells * sizeof(double));
        const double *vc = c + 2 * width;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < cells; i++)
            c[i] = q[i] * vc[i];
        /* the face stack: the velocities with their zero walls */
        double *vf = f + 2 * width, *rf = f + 3 * width;
        transfer6(rho, outer, M, inner, 0, 1.0, scratch, rf);
        for (ptrdiff_t o = 0; o < outer; o++) {
            double *line = vf + o * (M + 1) * inner;
            memset(line, 0, inner * sizeof(double));
            memcpy(line + inner, v[k] + o * (M - 1) * inner,
                   (M - 1) * inner * sizeof(double));
            memset(line + M * inner, 0, inner * sizeof(double));
        }
        double *fu = f + width;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < outer * (M + 1) * inner; i++) {
            f[i] = rf[i] * (vf[i] * vf[i]);
            fu[i] = rf[i] * vf[i];
        }
    }
    for (ptrdiff_t k = 0; dim == 2 && k < 2; k++) {
        const ptrdiff_t j = 1 - k, n = (M - 1) * M;
        ptrdiff_t outer, inner;
        double *corner = x + cols[2 * dim + k];
        double *avg = scratch + (M + 7) * M;
        const double *vj = v[j];
        /* the face average along k of v_j, (M-1, M-1), to the cells
           along j */
        split(j, M - 1, M - 1, &outer, &inner);
        for (ptrdiff_t a = 0; a < M - 1; a++) {
            const double *lo = k ? vj + a * M : vj + a * (M - 1);
            const double *hi = k ? lo + 1 : lo + M - 1;
            double *row = avg + a * (M - 1);
#pragma GCC ivdep
            for (ptrdiff_t b = 0; b < M - 1; b++)
                row[b] = 0.5 * (hi[b] + lo[b]);
        }
        transfer6(avg, outer, M, inner, 1, -1.0, scratch,
                  corner + 2 * width);
        /* the interior of the face densities along k */
        split(k, M, N, &outer, &inner);
        const double *rf = x + 3 * width + cols[dim + k];
        double *rc = corner + 3 * width;
        for (ptrdiff_t o = 0; o < outer; o++)
            memcpy(rc + o * (M - 1) * inner, rf + (o * (M + 1) + 1) * inner,
                   (M - 1) * inner * sizeof(double));
        /* rho v_1 v_2 in axis order, and rho v_k */
        const double *vk = v[k], *vt = corner + 2 * width;
        const double *va = k ? vt : vk, *vb = k ? vk : vt;
        double *cu = corner + width;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < n; i++) {
            corner[i] = rc[i] * va[i] * vb[i];
            cu[i] = rc[i] * vk[i];
        }
    }
}

/* The Rusanov flux 0.5 (F+ + F-) - (0.5 lam) (u+ - u-) and the diffusion
   (0.5 lam) (rho+ - rho-) at n points from the (minus, plus) states of
   stacks [F, u, v, rho], rows `stride` apart, with lam = max(|v-| + s-,
   |v+| + s+) from the sound speeds s-, s+.  NumPy's order of operations;
   a NaN speed wins the max, as in np.maximum. */
static void rusanov_flux(const double *minus, const double *plus,
                         ptrdiff_t stride, const double *s_minus,
                         const double *s_plus, ptrdiff_t n, double *flux,
                         double *diffusion)
{
#pragma GCC ivdep
    for (ptrdiff_t j = 0; j < n; j++) {
        const double a = fabs(minus[2 * stride + j]) + s_minus[j];
        const double b = fabs(plus[2 * stride + j]) + s_plus[j];
        const double half = 0.5 * (a >= b || a != a ? a : b);
        flux[j] = 0.5 * (plus[j] + minus[j])
                  - half * (plus[stride + j] - minus[stride + j]);
        diffusion[j] = half * (plus[3 * stride + j] - minus[3 * stride + j]);
    }
}

/* out (outer, n, inner) += sign (w[i+1] - w[i]) / h along the middle axis
   of w (outer, n + 1, inner).  Started at -0.0, the identity of addition
   for every double, out takes its first term as is, signed zeros
   included. */
static void difference(const double *w, ptrdiff_t outer, ptrdiff_t n,
                       ptrdiff_t inner, double sign, double h, double *out)
{
    const ptrdiff_t len = n * inner;
    for (ptrdiff_t o = 0; o < outer; o++) {
        const double *wo = w + o * (len + inner);
        double *oo = out + o * len;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < len; i++)
            oo[i] = oo[i] + sign * (wo[i + inner] - wo[i]) / h;
    }
}

/* The explicit convective tendency from the states of the stacks of
   `rusanov_stacks`, in rows 0..3 of `states`, row r at states + r * 2 half:
   minus of stack s at column cols[s], plus at half + cols[s], and the sound
   speeds at their densities in `sound`, in the same columns.  Adds per
   axis k into the density tendency the mass diffusion (the difference of
   the cell stack's diffusion over h, which is zero at the walls), into the
   phase tendency the negated difference of its flux over h, and into the
   momentum tendency of axis k the negated difference of the face stack's
   flux along k, then of the corner stack's along the other axis, each
   over h; the outputs start at -0.0.  fluxes holds 2 half doubles. */
void rusanov_tendency(ptrdiff_t dim, ptrdiff_t M, double h,
                      const double *states, const double *sound,
                      const ptrdiff_t *cols, ptrdiff_t half,
                      double *fluxes, double *rho, double *q,
                      double *const *m)
{
    const ptrdiff_t N = dim == 2 ? M : 1;
    double *flux = fluxes, *diffusion = fluxes + half;
    rusanov_flux(states, states + half, 2 * half, sound, sound + half, half,
                 flux, diffusion);
    for (ptrdiff_t k = 0; k < dim; k++) {
        ptrdiff_t outer, inner;
        split(k, M, N, &outer, &inner);
        double *d = diffusion + cols[k];
        for (ptrdiff_t o = 0; o < outer; o++) {
            double *line = d + o * (M + 1) * inner;
            memset(line, 0, inner * sizeof(double));
            memset(line + M * inner, 0, inner * sizeof(double));
        }
        difference(d, outer, M, inner, 1.0, h, rho);
        difference(flux + cols[k], outer, M, inner, -1.0, h, q);
        difference(flux + cols[dim + k], outer, M - 1, inner, -1.0, h, m[k]);
        if (dim == 2)   /* the corner flux, (M-1 along k, M+1 along j) */
            difference(flux + cols[2 * dim + k], k ? 1 : M - 1, M,
                       k ? M - 1 : 1, -1.0, h, m[k]);
    }
}

/* The explicit sources of the tendency of the cell fields rho and q (M, N),
   added in place, in the operations of their NumPy form (tests/oracles.py)
   and in its order: with c = q / rho,
   - into the momentum m[dim-1] of the last axis the buoyancy
     g (0.5 (rho+ + rho-)), rho+- the cells beside each face;
   - into each momentum m[k] the capillary force eps t, where
     t = 0.5 ((s+ - s-) / h) at the k-faces less, per axis j != k, the
     difference over h along j of the corner products (zero beyond the
     walls), s = -c_k^2 + sum_{j != k} c_j^2 at the cells, c_j the centred
     difference of c along j over 2h, its end values repeated, and a corner
     product the two face gradients of c, each averaged to the cell
     corners;
   - into tq the concave Cahn-Hilliard term, from -0.0 the sum over axes
     k of the difference over h along k of the fluxes
     (0.5 (psi+ + psi-)) (c+ - c-) / h, psi = 3 c^2 - 3, zero at the walls.
   scratch holds (dim + 4) M N + (2 M + 7) N + (M - 1)^2 doubles. */
void explicit_sources(ptrdiff_t dim, ptrdiff_t M, double h, double eps,
                      double g, const double *rho, const double *q,
                      double *tq, double *const *m, double *scratch)
{
    const ptrdiff_t N = dim == 2 ? M : 1, cells = M * N, nf = (M - 1) * N;
    double *c = scratch, *psi = c + cells, *c2 = psi + cells;
    double *t = c2 + dim * cells, *sum = t + cells, *line = sum + cells;
    double *w = line + (M + 6) * N, *corner = w + (M + 1) * N;
    ptrdiff_t outer, inner;
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < cells; i++) {
        c[i] = q[i] / rho[i];
        psi[i] = 3.0 * (c[i] * c[i]) - 3.0;
    }
    /* buoyancy */
    split(dim - 1, M, N, &outer, &inner);
    for (ptrdiff_t o = 0; o < outer; o++) {
        const double *r = rho + o * M * inner;
        double *mo = m[dim - 1] + o * (M - 1) * inner;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < (M - 1) * inner; i++)
            mo[i] = mo[i] + g * (0.5 * (r[i + inner] + r[i]));
    }
    /* the squared centred differences, each line with its end values
       repeated in the mirror rows of scratch */
    for (ptrdiff_t k = 0; k < dim; k++) {
        split(k, M, N, &outer, &inner);
        for (ptrdiff_t o = 0; o < outer; o++) {
            double *out = c2 + k * cells + o * M * inner;
            const double *e = line + 2 * inner;
            memcpy(line + 3 * inner, c + o * M * inner,
                   M * inner * sizeof(double));
            ghosts(line, M, inner, 0, 1.0);
#pragma GCC ivdep
            for (ptrdiff_t i = 0; i < M * inner; i++) {
                const double d = (e[i + 2 * inner] - e[i]) / (2.0 * h);
                out[i] = d * d;
            }
        }
    }
    /* the corner products, (M-1, M-1) */
    for (ptrdiff_t a = 0; dim == 2 && a < M - 1; a++) {
        const double *r0 = c + a * M, *r1 = r0 + M;
        double *co = corner + a * (M - 1);
#pragma GCC ivdep
        for (ptrdiff_t b = 0; b < M - 1; b++) {
            const double gx = 0.5 * ((r1[b + 1] - r0[b + 1]) / h
                                     + (r1[b] - r0[b]) / h);
            const double gy = 0.5 * ((r1[b + 1] - r1[b]) / h
                                     + (r0[b + 1] - r0[b]) / h);
            co[b] = gx * gy;
        }
    }
    /* the capillary force */
    for (ptrdiff_t k = 0; k < dim; k++) {
        const double *ck = c2 + k * cells;
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < cells; i++)
            sum[i] = -ck[i];
        for (ptrdiff_t j = 0; j < dim; j++) {
            const double *cj = c2 + j * cells;
            if (j == k)
                continue;
#pragma GCC ivdep
            for (ptrdiff_t i = 0; i < cells; i++)
                sum[i] = sum[i] + cj[i];
        }
        split(k, M, N, &outer, &inner);
        for (ptrdiff_t o = 0; o < outer; o++) {
            const double *so = sum + o * M * inner;
            double *to = t + o * (M - 1) * inner;
#pragma GCC ivdep
            for (ptrdiff_t i = 0; i < (M - 1) * inner; i++)
                to[i] = 0.5 * ((so[i + inner] - so[i]) / h);
        }
        for (ptrdiff_t j = 0; j < dim; j++) {
            if (j == k)
                continue;
            /* the corner products along j, on the k-faces (M-1 along k,
               M along j), with a zero row beyond each wall */
            split(j, k ? M : M - 1, k ? M - 1 : M, &outer, &inner);
            for (ptrdiff_t o = 0; o < outer; o++) {
                double *lw = w + o * (M + 1) * inner;
                memset(lw, 0, inner * sizeof(double));
                memcpy(lw + inner, corner + o * (M - 1) * inner,
                       (M - 1) * inner * sizeof(double));
                memset(lw + M * inner, 0, inner * sizeof(double));
            }
            difference(w, outer, M, inner, -1.0, h, t);
        }
        double *mk = m[k];
#pragma GCC ivdep
        for (ptrdiff_t i = 0; i < nf; i++)
            mk[i] = mk[i] + eps * t[i];
    }
    /* the concave Cahn-Hilliard term */
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < cells; i++)
        sum[i] = -0.0;
    for (ptrdiff_t k = 0; k < dim; k++) {
        split(k, M, N, &outer, &inner);
        for (ptrdiff_t o = 0; o < outer; o++) {
            const double *co = c + o * M * inner, *po = psi + o * M * inner;
            double *lw = w + o * (M + 1) * inner, *f = lw + inner;
            memset(lw, 0, inner * sizeof(double));
            memset(lw + M * inner, 0, inner * sizeof(double));
#pragma GCC ivdep
            for (ptrdiff_t i = 0; i < (M - 1) * inner; i++)
                f[i] = 0.5 * (po[i + inner] + po[i]) * (co[i + inner] - co[i])
                       / h;
        }
        difference(w, outer, M, inner, 1.0, h, sum);
    }
#pragma GCC ivdep
    for (ptrdiff_t i = 0; i < cells; i++)
        tq[i] = tq[i] + sum[i];
}
