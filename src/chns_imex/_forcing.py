"""Closed-form manufactured-solution forcing terms.

GENERATED by scripts/derive_forcing.py -- do not edit by hand.
Each function returns source terms that, added to the right-hand side, make
the prescribed space-time fields an exact solution of the continuous
equations, at one staggered location: `cell_<d>d` gives (s_rho, s_q) at the
cell centres, `face_<d>d_<k>` gives s_m_k at the faces normal to axis k.
Arguments are coordinate arrays plus scalar parameters.  `CELL[dim]` and
`FACE[dim][k]` look them up by dimension.
"""

import numpy



def cell_1d(x, t, delta, cp, gamma, nu, lam, eps, g):
    x0 = numpy.pi*x
    x1 = 2*x0
    x2 = delta*numpy.cos(x1)
    x3 = delta - 1
    x4 = numpy.cos(x0)
    x5 = t + 1
    x6 = x2*x5
    x7 = x6 + 1
    x8 = t - 1
    x9 = 2*x4*x8
    x10 = numpy.pi**2
    x11 = 400*x4
    x12 = x3*x9 + 15
    x13 = eps*x10
    x14 = numpy.sin(x0)
    x15 = x3*x8
    x16 = numpy.sin(x1)
    x17 = 1600*x13/x7**2
    return (x2, -1/4000*x10*x15*(3200*delta**2*x13*x16**2*x4*x5**2/x7**3 - delta*x14*x16*x17*x5 - x11*x13/x7 + x11 - 3*x12**2*x4 + 12*x12*x14**2*x15 + x17*x4*x6) - 1/20*x2*(-x3*x9 - 15) + (1/10)*x3*x4*x7)


def face_1d_0(x, t, delta, cp, gamma, nu, lam, eps, g):
    x0 = numpy.pi*x
    x1 = 2*x0
    x2 = delta*(t + 1)
    x3 = x2*numpy.cos(x1) + 1
    return -2*numpy.pi*cp*gamma*x2*x3**gamma*numpy.sin(x1)/x3 + (1/100)*numpy.pi**3*eps*(delta - 1)**2*(t - 1)**2*numpy.sin(x0)*numpy.cos(x0) - g*x3


def cell_2d(x, y, t, delta, cp, gamma, nu, lam, eps, g):
    x0 = numpy.pi*y
    x1 = numpy.cos(x0)
    x2 = numpy.pi*x
    x3 = 2*x2
    x4 = numpy.cos(x3)
    x5 = x1*x4
    x6 = t + 1
    x7 = x4*x6
    x8 = 2*x0
    x9 = numpy.cos(x8) - 1
    x10 = numpy.sin(x0)
    x11 = numpy.sin(x3)
    x12 = delta + 1
    x13 = 2*t**2 - 1
    x14 = numpy.pi*x12*x13
    x15 = x11*x14
    x16 = x10*x15*x7*x9
    x17 = x4 - 1
    x18 = numpy.sin(x8)
    x19 = x17*x18
    x20 = delta - 1
    x21 = numpy.cos(x2)
    x22 = delta*x5
    x23 = x22*x6
    x24 = x23 + 1
    x25 = t - 1
    x26 = x1*x25
    x27 = 2*x21*x26
    x28 = -x20*x27 - 15
    x29 = 200*x28
    x30 = numpy.sin(x2)
    x31 = 400*x1
    x32 = x20*x27 + 15
    x33 = 3*x32**2
    x34 = 800*eps
    x35 = x34/x24
    x36 = numpy.pi**2
    x37 = x1*x36
    x38 = x10**2
    x39 = x20*x25
    x40 = 12*x32
    x41 = x24**(-2.0)
    x42 = eps*x41
    x43 = delta*x42
    x44 = 1600*x38
    x45 = x36*x7
    x46 = x1**2
    x47 = delta**2*eps*x6**2/x24**3
    x48 = x21*x36
    x49 = x20*x26
    return (delta*(-2*x1*x15*x19*x6 + x16 + x5), (1/10)*numpy.pi*delta*x1*x11*x12*x13*x17*x18*x28*x6 - 1/4000*delta*x16*x29 + (1/10)*x1*x20*x21*x24 + (1/10)*numpy.pi*x10*x11*x12*x13*x20*x21*x24*x25*x9 - 1/4000*x14*x19*x20*x24*x25*x30*x31 - 1/4000*x22*x29 - 1/4000*x36*x49*(6400*x11**2*x46*x47*x48 - 3200*x11*x30*x37*x43*x6 - x21*x33 + 400*x21 + 3200*x23*x42*x48 + x30**2*x40*x49 - x35*x48) - 1/4000*x39*x48*(delta*x34*x41*x45*x46 - x1*x33 + x21*x38*x39*x40 + x31 - x35*x37 + x37*x4**2*x44*x47 - x43*x44*x45))


def face_2d_0(x, y, t, delta, cp, gamma, nu, lam, eps, g):
    x0 = delta + 1
    x1 = numpy.pi*y
    x2 = 2*x1
    x3 = numpy.sin(x2)
    x4 = 2*t**2 - 1
    x5 = numpy.pi*x
    x6 = 2*x5
    x7 = numpy.cos(x6)
    x8 = x7 - 1
    x9 = t + 1
    x10 = numpy.cos(x1)
    x11 = delta*x10*x7*x9 + 1
    x12 = numpy.pi**3
    x13 = numpy.sin(x5)
    x14 = numpy.cos(x5)
    x15 = (t - 1)**2
    x16 = (1 - delta)**2
    x17 = numpy.sin(x1)
    x18 = x17**2
    x19 = x10**2
    x20 = x3**2
    x21 = x0**2
    x22 = x4**2
    x23 = x21*x22
    x24 = numpy.sin(x6)
    x25 = 2*numpy.pi*x24
    x26 = delta*x10*x25*x9
    x27 = x11*x23*x25*x8
    x28 = numpy.cos(x2)
    x29 = x28 - 1
    return -cp*gamma*x11**gamma*x26/x11 + delta*x0*x10*x3*x4*x7*x8 + numpy.pi*delta*x17*x21*x22*x24*x29*x3*x7*x8*x9 - 1/100*eps*x12*x13*x14*x15*x16*(x18 - x19) + (1/100)*eps*x12*x13*x14*x15*x16*(x18 + x19) + 4*numpy.pi**2*nu*x0*x3*x4*(2*x7 - 1) + 4*t*x0*x11*x3*x8 - x20*x23*x26*x8**2 - x20*x27 - x27*x28*x29


def face_2d_1(x, y, t, delta, cp, gamma, nu, lam, eps, g):
    x0 = t + 1
    x1 = numpy.pi*y
    x2 = numpy.cos(x1)
    x3 = numpy.pi*x
    x4 = 2*x3
    x5 = numpy.cos(x4)
    x6 = delta*x2*x5
    x7 = x0*x6 + 1
    x8 = 2*t**2 - 1
    x9 = 2*x1
    x10 = numpy.cos(x9)
    x11 = delta + 1
    x12 = numpy.sin(x4)
    x13 = 4*x11*x12
    x14 = x10 - 1
    x15 = x14*x7
    x16 = numpy.pi**3
    x17 = numpy.sin(x1)
    x18 = (t - 1)**2
    x19 = (1 - delta)**2
    x20 = numpy.sin(x3)**2
    x21 = numpy.cos(x3)**2
    x22 = x11**2
    x23 = x8**2
    x24 = x12**2
    x25 = numpy.pi*x22*x23*x24
    x26 = delta*x0*x17
    x27 = numpy.sin(x9)
    x28 = x5 - 1
    x29 = 2*x15*x27
    x30 = numpy.pi*x5
    return -cp*gamma*x26*x30*x7**gamma/x7 + 2*numpy.pi*delta*x0*x14*x2*x22*x23*x24*x27*x28 - 1/100*eps*x16*x17*x18*x19*x2*(x20 - x21) + (1/100)*eps*x16*x17*x18*x19*x2*(x20 + x21) - g*x7 - numpy.pi**2*nu*x13*x8*(2*x10 - 1) - t*x13*x15 - x11*x12*x14*x6*x8 - x14**2*x25*x26*x5 - x22*x23*x28*x29*x30 - x25*x29


CELL = {1: cell_1d, 2: cell_2d}
FACE = {1: (face_1d_0,), 2: (face_2d_0, face_2d_1)}
