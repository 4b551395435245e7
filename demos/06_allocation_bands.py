"""How often each player bets its value share of budget on a node.

For a handful of nodes and a few symmetry levels theta, read from each
equilibrium marginal the probability that the spend on that node lands
within epsilon of the owner's value share of its budget (g_i for the
defender, h_i for the attacker; at theta = 1 the defender share is 1/9
everywhere).  A marginal is an atom at zero plus a uniform segment, so the
probability is exact and is the same for every joint allocation that keeps
the marginals.  Even at full symmetry the defender does not treat the nodes
alike: its marginal supports scale with the attacker's values h, so low-h
nodes sit in the band far more often than the big reference node.
"""

import os

from cpsblotto import (band_probability_table, battlefield_values,
                       default_nine_node, default_params, write_csv)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "demo_output")
os.makedirs(OUT_DIR, exist_ok=True)

topology = default_nine_node()
params = default_params(topology.n)
values = battlefield_values(topology, params)

nodes = (0, 1, 4)   # one node per tier: reference, main, ordinary
rows = band_probability_table(values.attacker, nodes,
                              points=(0.2, 0.6, 1.0), epsilon=0.05,
                              g_base=values.defender)

print("theta  g spread  node  owner     share  P(within band)")
for theta, deviation, node, owner, share, prob in rows:
    print(f"{theta:5.1f}  {deviation:8.4f}  {node:4d}  {owner:8s} "
          f"{share:6.3f}  {prob:13.4f}")
path = os.path.join(OUT_DIR, "bands.csv")
write_csv(path, ["theta", "defender_value_std", "node", "owner", "share",
                 "probability"], rows, units="probabilities; share of budget")
print(f"wrote {path}")

defender_at_1 = {node: prob for theta, _, node, owner, _, prob in rows
                 if theta == 1.0 and owner == "defender"}
print("\ndefender band hit rates at theta = 1:",
      "  ".join(f"node {n}: {p:.3f}" for n, p in sorted(defender_at_1.items())))
print("higher-valued nodes get big, volatile bets and miss the band; "
      "cheap nodes huddle near the uniform share")
