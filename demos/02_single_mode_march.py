"""Time marching reduced to a single oscillator.

On a 2x2 bilinear grid exactly one interior basis function survives, so
the wave equation collapses to c'' + (K/M) c = 0 and the discrete march
must follow cos(sqrt(K/M) t) = cos(sqrt(6) t).  This shows the slab blocks,
the continuity of the trial functions, and the derivative jumps that feed
the estimator.
"""

import numpy as np

from waveslab import ProblemData, TensorSpace, TimeGrid, march

space = TensorSpace(2, 2, 1)
print("interior unknowns:", space.n_dofs)
# M = Mx (x) My and K = Kx (x) My + Mx (x) Ky, from the 1D Gram matrices at the
# one interior node of each direction
mx, kx, my, ky = space.M1x[1, 1], space.K1x[1, 1], space.M1y[1, 1], space.K1y[1, 1]
print(f"M = {mx * my:.6f} (4/9), K = {kx * my + mx * ky:.6f} (8/3)")

# the initial displacement is the hat function (1 - |x|)(1 - |y|), given to
# the march by its gradient, whose elliptic projection is the hat itself
hat_x = lambda x, y: -np.sign(x) * (1.0 - np.abs(y))
hat_y = lambda x, y: -np.sign(y) * (1.0 - np.abs(x))
zero2 = lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
zero3 = lambda t, x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

data = ProblemData(grad_u0=(hat_x, hat_y), u1=zero2, f=zero3)
grid = TimeGrid.uniform(1.0, 10, 3)
sol = march(data, space, grid)

omega = np.sqrt(6.0)
print(f"\nmarching 10 slabs of degree 3; exact coefficient is cos({omega:.4f} t)")
print(f"{'t':>6s} {'computed':>12s} {'exact':>12s} {'error':>9s}")
for t in (0.2, 0.5, 0.8, 1.0):
    n = min(int(t / 0.1), grid.n_intervals - 1)
    c = float(sol.poly(n).eval(t)[0])
    print(f"{t:6.2f} {c:12.8f} {np.cos(omega * t):12.8f} {abs(c - np.cos(omega * t)):9.1e}")

print("\ntrial functions are continuous across slab interfaces:")
worst = max(
    float(np.max(np.abs(sol.poly(n).eval(grid.nodes[n + 1])
                        - sol.poly(n + 1).eval(grid.nodes[n + 1]))))
    for n in range(grid.n_intervals - 1)
)
print(f"  worst interface mismatch: {worst:.1e}")

print("\n...but their time derivatives jump, and the jumps drive the estimator:")
jump_norms = space.m_norm(sol.jumps)
for n in range(0, grid.n_intervals, 3):
    print(f"  slab {n}: |[U'](t_{n})|_M = {jump_norms[n]:.3e}")
