"""How far each seeded sampler moves its generator.

The samplers promise fixed outputs for a fixed seed, and
``tests/test_sampling_golden.py`` pins those outputs to rounding.  A
rewrite that consumed one normal draw more or fewer could still pass
there on the seeds it pins, and it would shift every later draw of a
caller sharing the generator.  So this file pins the value of
``gen.random()`` after each call, for n = 1..4 and several seeds: a
value that matches means the call left the stream where it found it
plus the same number of draws.  The values were recorded before the
samplers' Gram-Schmidt and point draws bound their generator methods
locally and assembled the isometry without numpy products.
"""

import numpy as np
import pytest

from chquad.hermitian import apply_isometry_point
from chquad.sampling import KINDS, random_isometry, random_moduli_point, random_quadruple

SEEDS = (0, 1, 2)

# gen.random() after random_isometry(n, gen), gen = default_rng(seed) for each of SEEDS
ISOMETRY = {
    1: (0.5436249914654229, 0.32973171649909216, 0.43263079080478717),
    2: (0.6884467305709401, 0.9616571936637868, 0.17177701508183452),
    3: (0.13509650502241122, 0.34324466249262875, 0.059434865435902484),
    4: (0.859035818221462, 0.1904783218387498, 0.050348925873711536),
}

# gen.random() after random_moduli_point(gen)
MODULI = (0.38367755426188344, 0.027559113243068367, 0.5934435177559062)

# gen.random() after random_quadruple(n, kind, gen)
QUADRUPLE = {
    (1, 'c_plane'): (0.9127555772777217, 0.42332644897257565, 0.7285605268117946),
    (2, 'generic'): (0.8631789223498866, 0.13404169724716475, 0.9674359524936766),
    (2, 'c_plane'): (0.9127555772777217, 0.42332644897257565, 0.7285605268117946),
    (2, 'r_plane'): (0.8132702392002724, 0.31183145201048545, 0.600100525965654),
    (2, 'subspace2'): (0.8631789223498866, 0.13404169724716475, 0.9674359524936766),
    (3, 'generic'): (0.6153851114812539, 0.9616571936637868, 0.31814660061537436),
    (3, 'c_plane'): (0.9127555772777217, 0.42332644897257565, 0.7285605268117946),
    (3, 'r_plane'): (0.8132702392002724, 0.31183145201048545, 0.600100525965654),
    (3, 'subspace2'): (0.8631789223498866, 0.13404169724716475, 0.9674359524936766),
    (4, 'generic'): (0.13509650502241122, 0.776683114342298, 0.6798114614845836),
    (4, 'c_plane'): (0.9127555772777217, 0.42332644897257565, 0.7285605268117946),
    (4, 'r_plane'): (0.8132702392002724, 0.31183145201048545, 0.600100525965654),
    (4, 'subspace2'): (0.8631789223498866, 0.13404169724716475, 0.9674359524936766),
}

# gen.random() after the sampling benchmark's op (benchmark_op below) on one generator
OP = {
    (1, 'c_plane'): (0.9340435159562497, 0.08155261736351271, 0.8621179849076281),
    (2, 'generic'): (0.9421131105064978, 0.6457208955749478, 0.438186166159125),
    (2, 'c_plane'): (0.39161900052816123, 0.6331599460365578, 0.6559283927641014),
    (2, 'r_plane'): (0.9421131105064978, 0.8254878133935558, 0.438186166159125),
    (2, 'subspace2'): (0.9421131105064978, 0.6457208955749478, 0.438186166159125),
    (3, 'generic'): (0.17540974998508108, 0.8254878133935558, 0.5040144824015966),
    (3, 'c_plane'): (0.4146558493556708, 0.884521531618113, 0.5065514916069802),
    (3, 'r_plane'): (0.8326441476533978, 0.6457208955749478, 0.0031867706181171185),
    (3, 'subspace2'): (0.7756911881018284, 0.10973466400669674, 0.0031867706181171185),
    (4, 'generic'): (0.03440693567802455, 0.10973466400669674, 0.745204062703274),
    (4, 'c_plane'): (0.37564232570525413, 0.6331599460365578, 0.6133276764903989),
    (4, 'r_plane'): (0.9421131105064978, 0.7827604679261685, 0.6133276764903989),
    (4, 'subspace2'): (0.028365365113521057, 0.10973466400669674, 0.16973044945076732),
}


def after(call, seed) -> float:
    gen = np.random.default_rng(seed)
    call(gen)
    return gen.random()


def benchmark_op(n, kind):
    """The sampling benchmark's op: quadruple, isometry, moved points, moduli point."""
    def run(gen):
        q = random_quadruple(n, kind, gen)
        g = random_isometry(n, gen)
        [apply_isometry_point(g, p) for p in q]
        random_moduli_point(gen)
    return run


def test_every_kind_and_dimension_is_pinned():
    combos = {(n, kind) for n in (1, 2, 3, 4) for kind in KINDS if kind == "c_plane" or n >= 2}
    assert set(QUADRUPLE) == combos and set(OP) == combos


@pytest.mark.parametrize("n", sorted(ISOMETRY))
def test_random_isometry_stream_position(n):
    assert [after(lambda gen: random_isometry(n, gen), s) for s in SEEDS] == list(ISOMETRY[n])


def test_random_moduli_point_stream_position():
    assert [after(random_moduli_point, s) for s in SEEDS] == list(MODULI)


@pytest.mark.parametrize("n,kind", sorted(QUADRUPLE))
def test_random_quadruple_stream_position(n, kind):
    got = [after(lambda gen: random_quadruple(n, kind, gen), s) for s in SEEDS]
    assert got == list(QUADRUPLE[n, kind])


@pytest.mark.parametrize("n,kind", sorted(OP))
def test_benchmark_op_stream_position(n, kind):
    assert [after(benchmark_op(n, kind), s) for s in SEEDS] == list(OP[n, kind])
