"""Successful-transmission probabilities: analytic vs Monte Carlo.

Sweeps the SIR threshold and prints, side by side, the analytic success
probability and an independent Monte-Carlo estimate for

  * the nearest macro base station (MBS) link, and
  * cooperative small-cell (SBS) clusters serving the base layer (disk,
    up to n1 helpers) and the enhancement layer (annulus, up to n2).

Run time is kept short with a modest drop count; raise DROPS for tighter
error bars.
"""

from svcache import analytic, montecarlo
from svcache.config import NetworkConfig, db_to_linear

DROPS = 20_000
GAMMA_DB = (0.0, 5.0, 10.0, 15.0, 20.0)

net = NetworkConfig()

print(f"network: lambda_m = {net.lambda_m:.3e} /m^2, "
      f"lambda_s = {net.lambda_s:.3e} /m^2, "
      f"cluster radii a = {net.a:.0f} m, b = {net.b:.0f} m")
print(f"{DROPS} Monte-Carlo drops per estimate\n")

print("nearest-MBS link")
print(f"{'gamma[dB]':>10} {'analytic':>10} {'monte-carlo':>12} "
      f"{'3 sigma':>9}")
for g_db in GAMMA_DB:
    gamma = db_to_linear(g_db)
    exact = analytic.p_success_mbs(net, gamma)
    est = montecarlo.estimate_p_success_mbs(net, gamma, DROPS, seed=0)
    print(f"{g_db:>10.0f} {exact:>10.4f} {est.mean:>12.4f} "
          f"{3 * est.std_error:>9.4f}")

for label, layer, fn, n in (
        ("base layer, disk cluster", "BL", analytic.p_success_sbs_bl, net.n1),
        ("enhancement layer, annulus cluster", "EL",
         analytic.p_success_sbs_el, net.n2)):
    print(f"\ncooperative SBS service: {label} (n = {n})")
    print(f"{'gamma[dB]':>10} {'analytic':>10} {'monte-carlo':>12} "
          f"{'3 sigma':>9}")
    for g_db in GAMMA_DB:
        gamma = db_to_linear(g_db)
        exact = fn(net, gamma, n, seed=0)
        est = montecarlo.estimate_p_success_sbs(net, gamma, layer, n, DROPS,
                                                seed=0)
        print(f"{g_db:>10.0f} {exact:>10.4f} {est.mean:>12.4f} "
              f"{3 * est.std_error:>9.4f}")

print("\nmore cooperating helpers always raise the success probability:")
for n in range(1, net.n1 + 1):
    p = analytic.p_success_sbs_bl(net, net.gamma_bl, n, seed=0)
    print(f"  n = {n}: P(success) = {p:.4f}")
