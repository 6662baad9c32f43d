"""Least squares estimation along one path.

Fits the autoregressive coefficients, extracts residuals, estimates the
residual serial correlation and the Durbin-Watson statistic, and shows that
everything converges to the predicted limits as n grows. Also compares the
least squares and moment (Yule-Walker) coefficient estimates.
"""

import numpy as np

import ardw
from ardw.estimators import yule_walker_fit

prm = ardw.ModelParams(p=2, theta=np.array([0.4, -0.3]), rho=0.3)
limits = ardw.limit_summary(prm)

print(f"true theta {prm.theta.tolist()}, rho {prm.rho}")
print(f"limits: theta* {np.round(limits.theta_star, 4).tolist()},"
      f" rho* {limits.rho_star:.4f}, D* {limits.d_star:.4f}\n")

print("      n     theta_hat              rho_hat     DW")
for n in (200, 2000, 20_000, 200_000):
    f = ardw.fit(ardw.simulate(prm, n, seed=7).x, prm.p)
    print(f"{n:7d}   {np.round(f.theta_hat, 4).tolist()!s:22s}"
          f" {f.rho_hat:8.4f}  {f.dw:6.4f}")

# the moment estimate solves the sample Toeplitz system instead; its
# first-coefficient variance satisfies an exact algebraic identity
x = ardw.simulate(prm, 5000, seed=8).x
theta_ls = ardw.fit(x, prm.p).theta_hat
theta_yw, var1 = yule_walker_fit(x, prm.p)
n = len(x) - 1
print(f"\nleast squares  {np.round(theta_ls, 5).tolist()}")
print(f"moment method  {np.round(theta_yw, 5).tolist()}")
print(f"exact identity 1 - n*var - theta_p^2 = "
      f"{1 - n * var1 - theta_yw[-1] ** 2:.2e}")
