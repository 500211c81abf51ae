"""The standard lift's bits on every supported Python.

``hermitian._lift`` sums |z_k|^2 left to right.  Python 3.12's ``sum()``
compensates float sums, so a lift built with it differs from 3.10 and 3.11
in the last bit of its first coordinate for 167 of these 1000 points with
three z-coordinates and 234 of the 1000 with four.  LIFT_BITS was recorded
on Python 3.11 (x86-64, glibc 2.36) over points at n = 4 and 5.  The corpus
comes from the standard library's ``random``, and this file imports neither
numpy nor pytest, so the check also runs as ``python tests/test_lift_bits.py``
on an interpreter without them.
"""

import hashlib
import json
import random

from chquad.hermitian import _lift
from chquad.points import BoundaryPoint


def corpus() -> list:
    """(point, n): 1000 points at n = 4 and 1000 at n = 5, their parts spread over 1e-3..1e3."""
    rng = random.Random(28)

    def part():
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3)

    return [(BoundaryPoint.finite([complex(part(), part()) for _ in range(n - 1)], part()), n)
            for n in (4, 5) for _ in range(1000)]


# sha256 of the float.hex parts of every coordinate of every lift of corpus()
LIFT_BITS = "2261473ca84e62e5669ea4bba1f14bdf8cb66dfdb2a97202ad833f87b315b72b"


def lift_bits() -> str:
    bits = [[v.real.hex(), v.imag.hex()] for p, n in corpus() for v in _lift(p, n)]
    return hashlib.sha256(json.dumps(bits).encode()).hexdigest()


def test_the_lift_keeps_its_bits_on_every_python():
    assert lift_bits() == LIFT_BITS


if __name__ == "__main__":
    test_the_lift_keeps_its_bits_on_every_python()
    print("ok")
