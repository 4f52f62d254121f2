"""Program set-up: import turancover and warm the lazy solver imports.

Run as a script in a fresh interpreter it prints the seconds this took,
which is the benchmark's ``setup_s``.  ``run.py`` also calls ``warm`` in
its own process before the first timed operation.
"""

import time


def warm():
    from turancover.hypergraph import Hypergraph
    from turancover.lp import solve_vc_lp

    H = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
    solve_vc_lp(H, mode="float")  # first call imports scipy.optimize
    solve_vc_lp(H, mode="exact")


if __name__ == "__main__":
    start = time.perf_counter()
    import turancover  # noqa: F401  (the import is what is being timed)
    warm()
    print(time.perf_counter() - start)
