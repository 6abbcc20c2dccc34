"""A fixed pure-Python job that the benchmark times as a cold process.

    python perfbench/calibrate.py

It imports nothing from ``bncells``, so no change to the library moves it.
Its wall time measures how fast the host runs a cold Python process at that
moment; ``run.py`` scales the workload processes next to it by that speed.
The job mixes what the library spends its time on: tuples of signed
permutations, dictionaries keyed by them, and integer arithmetic.
"""

import itertools


def job() -> int:
    index: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(8)):
        signed = tuple(-x if x % 3 == 0 else x for x in perm)
        index[signed] = len(index)
    blocks: dict[tuple[int, int, int], list[int]] = {}
    for signed, i in index.items():
        blocks.setdefault((signed[0], signed[-1], sum(signed[:3])), []).append(i)
    counts: dict[int, int] = {}
    for i in range(600_000):
        key = (i * 7919) % 50_003
        counts[key] = counts.get(key, 0) + i
    return len(blocks) + len(counts)


if __name__ == "__main__":
    # a little over a second: long enough to average the host's bursts
    for _ in range(3):
        job()
