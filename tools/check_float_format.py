"""Compare visco1d.g17's fields with CPython's '%.17g' on many doubles.

Usage: PYTHONPATH=src python tools/check_float_format.py COUNT SEED

Draws COUNT doubles from numpy's generator seeded with SEED, a third each
from three sources: uniformly random bit patterns (every finite and
non-finite kind, both signs), magnitudes log-uniform over the kernel's
integer domain 1e-11..1e16 with random signs, and the neighbourhood of
every power of ten 1e-20..1e17, up to 64 ulps away on either side.  Each is
formatted by ``g17.Fields`` and by ``'%.17g' %``; the script prints the
count checked and the count that differ, with the first few, and exits 1
if any differ.
"""

from __future__ import annotations

import sys

import numpy as np

from visco1d import g17

CHUNK = 20000  # values per kernel call; the kernel keeps ~320 bytes per value


def draws(count: int, seed: int) -> np.ndarray:
    """COUNT doubles: random bits, log-uniform in the domain, near powers of ten."""
    rng = np.random.default_rng(seed)
    third = count // 3
    bits = rng.integers(0, 2**64, count - 2 * third, dtype=np.uint64).view(np.float64)
    domain = np.exp(rng.uniform(np.log(1e-11), np.log(1e16), third))
    domain *= rng.choice([-1.0, 1.0], third)
    powers = np.array([float(f"1e{j}") for j in range(-20, 18)])
    near = rng.choice(powers, third).view(np.int64) + rng.integers(-64, 65, third)
    near = near.view(np.float64) * rng.choice([-1.0, 1.0], third)
    return np.concatenate((bits, domain, near))


def mismatches(values: np.ndarray) -> list[tuple[float, bytes, bytes]]:
    """(value, kernel's bytes, '%.17g' bytes) for each value where they differ."""
    found = []
    for start in range(0, values.size, CHUNK):
        chunk = values[start:start + CHUNK]
        got = g17.Fields(chunk.size)(chunk).view(f"S{g17.WIDTH}").ravel().tolist()
        want = ("%.17g\n" * chunk.size % tuple(chunk.tolist())).encode().split(b"\n")
        found += [(x, g, w) for x, g, w in zip(chunk.tolist(), got, want) if g != w]
    return found


def main(argv: list[str]) -> int:
    count, seed = int(argv[0]), int(argv[1])
    bad = mismatches(draws(count, seed))
    print(f"checked {count} values, {len(bad)} mismatches")
    for x, got, want in bad[:10]:
        print(f"  {x!r}: kernel {got!r}, '%.17g' {want!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
