"""Accuracy of the composite Gauss-Legendre quadrature and the
monotone-safe interpolation that transfers iterates onto quadrature nodes."""

import math

from mixedfp import integrate, interpolate, make_quadrature, uniform_grid

print("integral of 1/s on [1, T] vs ln T (Gauss-Legendre, 32 panels x 8 pts):")
for T in (2.0, math.e, 10.0):
    rule = make_quadrature(T, 32, 8)
    err = abs(integrate(rule, 1.0 / rule.nodes) - math.log(T))
    print(f"  T = {T:6.4g}: error {err:.2e}")

print("\n2-point Gauss-Legendre on [1, 2], error / 16 per panel halving:")
prev = None
for panels in (4, 8, 16, 32):
    rule = make_quadrature(2.0, panels, 2)
    err = abs(integrate(rule, 1.0 / rule.nodes) - math.log(2.0))
    ratio = f"  ratio {prev / err:5.1f}" if prev else ""
    print(f"  {panels:3d} panels: error {err:.3e}{ratio}")
    prev = err

print("\ninterpolation of t^2 sampled on 65 uniform nodes over [1, 2]:")
u = uniform_grid(2.0, 64).sample(lambda t: t * t)
for t in (1.1, 1.37, 1.9):
    print(f"  t = {t}: |interp - exact| = {abs(interpolate(u, t) - t * t):.2e}")
