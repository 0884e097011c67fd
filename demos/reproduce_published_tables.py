"""Reproduce the benchmark tables from the shipped configuration files and
print them as aligned text.  The 1D mean-based tables take under a second
together; the whole script, 2D sweeps included, takes about 6 s on two
cores with one BLAS thread.

Run:  python3 demos/reproduce_published_tables.py [--quick]
"""

import sys
from pathlib import Path

from sgprecond.config import load_config
from sgprecond.experiments import ResultTable, run_verify

CONFIGS = Path(__file__).parent.parent / "configs"
quick = "--quick" in sys.argv

for setting in (1, 2, 3):
    table = run_verify(load_config(CONFIGS / f"table3_setting{setting}.cfg"))
    print(f"\n1D mean-based preconditioning, setting {setting}:")
    print(table.render("md"))

if quick:
    print("\n(--quick: skipping the 2D sweeps)")
    sys.exit(0)

print("\n2D splitting / two-block Gauss-Seidel, degree sweep:")
print(run_verify(load_config(CONFIGS / "table4.cfg")).render("md"))

merged = ResultTable()
for k in range(1, 8):
    merged.add_row(run_verify(load_config(CONFIGS / f"table5_K{k}.cfg")).rows[0])
print("\n2D splitting / two-block Gauss-Seidel, expansion-length sweep:")
print(merged.render("md"))
