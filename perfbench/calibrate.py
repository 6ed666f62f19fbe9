"""A fixed task that run.py times right before each measured command.

    python3 perfbench/calibrate.py

On a shared machine the speed of a CPU drifts by tens of percent within
minutes, and every command's wall time drifts with it.  This process does
the same kinds of work as an accessopt command, at a fixed size: start the
interpreter, import numpy, gather matrix columns as the evaluator does, and
run heap-based shortest-path searches in Python as routing does.  run.py
divides each command's wall time by the wall time of this process, run just
before it, so that a slow minute on the machine cancels out.  It uses no
file of the repository outside this directory.
"""

import heapq
import math

import numpy as np

GRID = 30
REPEATS = 12


def main() -> None:
    rng = np.random.default_rng(20230601)
    matrix = rng.random((900, 120))
    columns = [np.sort(rng.choice(120, 40, replace=False)) for _ in range(40)]
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(GRID * GRID)}
    lengths = iter(rng.uniform(100.0, 130.0, size=2 * GRID * GRID).tolist())
    for i in range(GRID * GRID):
        r, c = divmod(i, GRID)
        for j in ([i + 1] if c + 1 < GRID else []) + ([i + GRID] if r + 1 < GRID else []):
            w = next(lengths)
            adj[i].append((j, w))
            adj[j].append((i, w))
    for _ in range(REPEATS):
        for cols in columns:
            matrix[:, cols].sum(axis=1)
        for source in range(0, GRID * GRID, 45):
            dist = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if d + w < dist.get(v, math.inf):
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))


if __name__ == "__main__":
    main()
