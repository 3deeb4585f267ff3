"""Fixed reference work that measures the host's current CPU speed.

Usage: python3 bench/reference.py  (prints ``reference <checksum>``)

The benchmark runs this script as its own process between consecutive CLI
commands and divides each command's time by how long the runs next to it
took, relative to ``run.REFERENCE_NOMINAL_S``. It does what the CLI
commands do, in fixed amounts and without skylink: start an interpreter,
import numpy, take per-sample steps on small arrays, run a pure-Python
loop and format CSV text. On a shared host whose speed drifts by tens of percent over
minutes, it slows down with the commands around it, so the ratio stays
steady while the raw times do not. Nothing here may change between
commits that are compared, or the ratio changes with it.
"""

import numpy as np


def main() -> int:
    rng = np.random.default_rng(0)
    centers = rng.random((20, 2))
    weights = rng.random(20)
    for x in rng.random((1500, 2)):
        d = centers - x
        h = np.exp(-(d * d).sum(axis=1))
        weights += 0.01 * (0.5 - float(h @ weights)) * h
    total = 0
    for i in range(150_000):
        total += i * i % 7
    text = "\n".join(f"{i},{i * 0.37:.6f}" for i in range(8_000))
    return (total + len(text) + int(weights.sum() * 1e6)) % 1_000_003


if __name__ == "__main__":
    print(f"reference {main()}")
