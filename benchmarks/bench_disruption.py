"""Time the partition kernel in each citer partition mode.

Builds a synthetic citation graph, selects the well-connected focals,
and times the sparse kernel over their CSR arrays in each mode. Run
from the repository root:

    python3 benchmarks/bench_disruption.py
    python3 benchmarks/bench_disruption.py --n-nodes 20000 --repeat 5
"""

import argparse
import time

import numpy as np
# The kernel imports scipy.sparse on its first call; importing it here
# keeps that import out of the timings.
import scipy.sparse  # noqa: F401

from disruptkit import _kernels
from disruptkit.synth import synth_graph


def best_of(repeat, fn, *args):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-nodes", type=int, default=107952)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--max-focals", type=int, default=None,
                        help="cap the focal count (default: all eligible)")
    parser.add_argument("--ls", default="1,2,3,5",
                        help="comma-separated thresholds")
    args = parser.parse_args(argv)

    ls = np.array(sorted({int(x) for x in args.ls.split(",")}), dtype=np.int64)
    graph = synth_graph(args.n_nodes, seed=args.seed)
    focals = np.nonzero((graph.in_deg >= 11) & (graph.out_deg >= 11))[0]
    focals = focals.astype(np.int64)
    if args.max_focals is not None:
        focals = focals[:args.max_focals]
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
          f"{focals.size} focals, ls = {tuple(int(x) for x in ls)}")

    csr = (graph.fwd_indptr, graph.fwd_indices,
           graph.bwd_indptr, graph.bwd_indices, graph.in_deg)
    times = [best_of(args.repeat, _kernels.partition_counts, *csr, focals, ls, overlap)
             for overlap in (False, True)]

    print(f"\n{'kernel':<10} {'ref_indegree':>14} {'overlap':>14}")
    print(f"{'sparse':<10} {times[0]:>13.2f}s {times[1]:>13.2f}s")


if __name__ == "__main__":
    main()
