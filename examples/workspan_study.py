"""Work-span study: reproduce the paper's headline shapes at demo scale.

Prints four small tables (`python -m repro bench run e1 e4 e9 e10` runs
the full sweeps and judges their claims):

* E1 — §3 peeling work is near-linear in m,
* E4 — peeling beats the naive per-round reachability baseline,
* E9 — parallel Goldberg overtakes Bellman–Ford as n grows,
* E10 — parallelism (work / span) exceeds m^(1/4).

Run:  python examples/workspan_study.py        (~1 minute)
"""

from repro.analysis import fit_exponent, print_table
from repro.analysis.experiments import (
    run_dag01_work_scaling,
    run_goldberg_vs_bellman_ford,
    run_peeling_vs_naive,
    run_span_parallelism,
)

rows = run_dag01_work_scaling(sizes=(200, 400, 800, 1600))
print_table(rows, "E1 — §3 peeling: work vs m  (claim: Õ(m))")
exp = fit_exponent([r.params["m"] for r in rows],
                   [r.values["work"] for r in rows])
print(f"fitted work exponent in m: {exp:.2f}  (1.0 = linear; logs push it "
      "slightly above)")

rows = run_peeling_vs_naive(depths=(10, 30, 90, 270))
print_table(rows, "E4 — peeling vs naive per-round reachability")
print("naive/peeling work ratio should grow with depth L "
      "(the naive algorithm pays Θ(L·m)).")

rows = run_goldberg_vs_bellman_ford(sizes=(128, 256, 512, 1024))
print_table(rows, "E9 — parallel Goldberg vs Bellman–Ford "
            "(BF-adversarial graphs)")
ratio_exp = fit_exponent([r.params["n"] for r in rows],
                         [r.values["work_ratio_bf_over_goldberg"]
                          for r in rows])
print(f"fitted ratio exponent in n: {ratio_exp:.2f}  "
      "(claim shape: ~0.5 = √n, minus polylog drag)")

rows = run_span_parallelism(sizes=(64, 128, 256, 512))
print_table(rows, "E10 — span & parallelism of the full solver")
print("parallelism / m^(1/4) should stay bounded away from 0 "
      "(Theorem 17's m^(1/4-o(1)) parallelism).")
print("\nworkspan study OK")
