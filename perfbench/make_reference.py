"""Rewrite ``reference.npz`` from the library as it is now.

    python3 perfbench/make_reference.py

Only for a change that is meant to alter the reference outputs (E, T, g,
mu, payoffs and the sweeps at the check seed); say so where it is reviewed.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.run import pin_threads
    pin_threads()
    import numpy as np

    from perfbench import checks, workloads

    np.savez_compressed(checks.REFERENCE_PATH,
                        **workloads.reference_outputs())
