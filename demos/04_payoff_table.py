"""Reproduce the reference payoff table from frozen value columns.

value_table.json carries one attacker value vector h and three defender
value columns, each produced by a different single-coupling pattern on the
nine-node system (the failure of one node fully compromising another).
The defender payoff rises with every coupling while the attacker payoff
stays pinned at R_A / (2 R_D) = 0.2.

The CLI does the same thing:  cpsblotto table1 --scenario value_table.json
"""

import os

from cpsblotto import load_value_table, payoff_table

HERE = os.path.dirname(os.path.abspath(__file__))

h, g_columns = load_value_table(os.path.join(HERE, "value_table.json"))
rows = payoff_table(h, g_columns, budget_d=2.5, budget_a=1.0)

width = max(len(name) for name, _, _ in rows)
print(f"{'values':<{width}}  defender payoff  attacker payoff")
for name, payoff_d, payoff_a in rows:
    print(f"{name:<{width}}  {payoff_d:15.6f}  {payoff_a:15.6f}")

baseline = rows[0][1]
best = max(rows[1:], key=lambda row: row[1])
print(f"\nbest coupling ({best[0]}) lifts the defender payoff by "
      f"{best[1] - baseline:+.4f} over the uncoupled game")
