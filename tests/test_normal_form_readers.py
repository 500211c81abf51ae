"""``classify`` reads each face's chain quantity off (X1, X2, A); ``reconstruct`` and
``face_dets_from_moduli`` read the normal form's three free entries.

The face flags are checked against the triple products of the full rows of
``gram_from_moduli(m)``, an oracle that does not go through ``classify``'s chain
quantities, on sampled moduli and on points nudged across each threshold.  The
reconstructed lifts and the classification reports are pinned bit for bit by digests
recorded before the faces were read off the free entries (x86-64, glibc 2.36, numpy 2.4);
they held when ``classify`` moved on to the chain quantities.  A |X2|^2 below the normal
float range, which ``reconstruct`` divides by, raises UnderflowError, as it does in
``det_from_moduli`` and ``face_dets_from_moduli``; a free entry outside the float range
raises OverflowError or UnderflowError naming it.  The other readers of F are pinned by
digests too, recorded before they shared one reader of F and its scale.
"""

import cmath
import hashlib
import json
import math
import re

import numpy as np
import pytest

from chquad import (GeometryError, ModuliPoint, NumericConfig, UnderflowError, ZeroCrossRatio,
                    classify, det_from_moduli, face_dets_from_moduli, gram_from_moduli, gram_of,
                    in_moduli_space, moduli_coordinates, moduli_from_gram, moduli_residual,
                    normalize, positivity_check, reconstruct, residual_scale)
from chquad.cli import main
from chquad.gram import FACES
from chquad.sampling import KINDS, random_chain_moduli, random_moduli_point, random_quadruple

HALF_PI = math.pi / 2.0
CONFIGS = (None, NumericConfig(0.0, 1e-12), NumericConfig(1e-6, 1e-6))
NUDGES = (0.5, 0.99, 1.01, 2.0)  # multiples of a threshold, on either side of it
ZERO_ABS = NumericConfig(0.0, 1e-9)


def base_points():
    """(X1, X2, A) of sampled quadruples of every kind, of chain points and of moduli draws."""
    rng = np.random.default_rng(18)
    ms = [moduli_coordinates(random_quadruple(n, kind, rng))
          for kind in KINDS for n in (2, 3) for _ in range(8)]
    ms += [random_chain_moduli(rng, sign) for sign in (1.0, -1.0) for _ in range(8)]
    ms += [random_moduli_point(rng) for _ in range(16)]
    return [(m.x1, m.x2, m.cartan) for m in ms]


def nudged(x1, x2, a, tol):
    """(x1, x2, a) moved so that each face's chain quantity, the R-circle angle and the
    chain conditions sit at a multiple of their threshold tol(scale), on either side."""
    out = []
    for k in NUDGES:
        for s in (1.0, -1.0):
            q = s * k
            # face (1,2,3): cos A; (1,2,4): Re(X1 e^{-iA}); (1,3,4): Re(X2 e^{iA});
            # (2,3,4): Re(X1 conj(X2) e^{-iA})
            out.append((x1, x2, math.copysign(HALF_PI - k * tol(1.0), a)))
            y = (x1 * cmath.exp(-1j * a)).imag
            out.append(((q * tol(abs(y)) + 1j * y) * cmath.exp(1j * a), x2, a))
            y = (x2 * cmath.exp(1j * a)).imag
            out.append((x1, (q * tol(abs(y)) + 1j * y) * cmath.exp(-1j * a), a))
            u = x2.conjugate() * cmath.exp(-1j * a)
            y = (x1 * u).imag
            out.append(((q * tol(abs(y)) + 1j * y) / u, x2, a))
            # the R-circle angle, then the chain conditions |A| = pi/2, Im X1 = 0, X1 + X2 = 1
            out.append((x1, x2, q * tol(1.0)))
            out.append((x1, x2, math.copysign(HALF_PI + q * tol(1.0), a)))
            out.append((x1 + 1j * q * tol(abs(x1)), x2, a))
            out.append((x1, x2 + q * tol(abs(x1) + abs(x2)), a))
    return out


def corpus(c):
    """Base points, each nudged across every threshold of c, and with |X2| down to 1e-6."""
    tol = (NumericConfig() if c is None else c).tol
    out = []
    for x1, x2, a in base_points():
        out.append((x1, x2, a))
        out += nudged(x1, x2, a, tol)
        out += [(x1, x2 * 10.0 ** -j, a) for j in range(1, 7)]
    return out


def classify_or_error(x1, x2, a, c):
    try:
        m = ModuliPoint(x1, x2, a, c)
        return m, classify(m, c)
    except GeometryError as e:
        return None, type(e).__name__


def chain_flags(m, c) -> tuple:
    """Each face's chain quantity held to tol of its size, computed off (X1, X2, A)."""
    tol = (NumericConfig() if c is None else c).tol
    x1, x2, a = m.x1, m.x2, m.cartan
    return (abs(math.cos(a)) <= tol(1.0),
            abs((x1 * cmath.exp(-1j * a)).real) <= tol(abs(x1)),
            abs((x2 * cmath.exp(1j * a)).real) <= tol(abs(x2)),
            abs((x1 * x2.conjugate() * cmath.exp(-1j * a)).real) <= tol(abs(x1 * x2)))


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def hex_bits(z: complex) -> list:
    return [z.real.hex(), z.imag.hex()]


@pytest.mark.parametrize("c", CONFIGS)
def test_face_flags_match_the_triple_products_of_the_rows(c):
    tol = (NumericConfig() if c is None else c).tol
    flags = np.zeros((4, 2), dtype=int)
    for x1, x2, a in corpus(c):
        m, rep = classify_or_error(x1, x2, a, c)
        if m is None:
            continue
        r = gram_from_moduli(m).rows
        w = 2.0 / abs(m.x2) ** 2
        weights = (2.0, w, w, w)
        scales = (1.0, abs(m.x1), abs(m.x2), abs(m.x1 * m.x2))
        for f, ((i, j, k), flag) in enumerate(zip(FACES, rep.face_on_chain)):
            i, j, k = i - 1, j - 1, k - 1
            want = abs(2 * (r[i][j] * r[j][k] * r[k][i]).real) <= weights[f] * tol(scales[f])
            assert flag == want, (m, FACES[f])
            flags[f, flag] += 1
    assert (flags > 100).all(), flags  # every face is seen on and off its chain


# sha256 of the reports (or error names) over corpus(c), one per config of CONFIGS
REPORTS = ("16fa178bb450c66d40a2203dc4c030404f2bf7554e7fad182c6036fa6b7aba21",
           "64bf334ba98c49cb17d3df3925f446c80f52f1758ee178707a7bbb5472a1fc58",
           "819162ace7c4b05dbb577164d9b6bde1caae29513622508d2a6a88b22fc1fa6f")


@pytest.mark.parametrize("c, want", zip(CONFIGS, REPORTS))
def test_classification_reports_keep_their_bits(c, want):
    reports = []
    for x1, x2, a in corpus(c):
        _, rep = classify_or_error(x1, x2, a, c)
        reports.append(rep if isinstance(rep, str) else
                       [float(rep.residual).hex(), list(rep.face_on_chain), rep.is_c_plane,
                        rep.is_r_plane, rep.in_real_slice, rep.in_singular_set, rep.det_sign])
    assert digest(reports) == want


def f_readers(x1, x2, a, c) -> list:
    """What each other reader of F gives at (x1, x2, a) under c: floats as hex, or the name
    of the error it raises."""
    readers = (moduli_residual, residual_scale, det_from_moduli,
               lambda m: in_moduli_space(m, 2, c), lambda m: in_moduli_space(m, 3, c),
               lambda m: positivity_check(m, c))
    try:
        m = ModuliPoint(x1, x2, a, c)
    except GeometryError as e:
        return [type(e).__name__]
    out = []
    for read in readers:
        try:
            value = read(m)
            out.append(value.hex() if isinstance(value, float) else value)
        except (GeometryError, ArithmeticError) as e:
            out.append(type(e).__name__)
    return out


# sha256 of f_readers over corpus(c), one per config of CONFIGS
F_READERS = ("19c77ca3bf5142e544c7db5534fec0ec32852ff2122c014f75e71a157ab2311d",
             "662f5e301a13a5042252f6213aed78e2b659526fe34197276445c8848799d44f",
             "6efe8856adb78dd7ffc584e80108bf053ee48c829ecb20edd1d78948cdfec5c9")


@pytest.mark.parametrize("c, want", zip(CONFIGS, F_READERS))
def test_the_other_readers_of_f_keep_their_bits(c, want):
    assert digest([f_readers(x1, x2, a, c) for x1, x2, a in corpus(c)]) == want


def lifts_corpus():
    """(m, n): random_moduli_point draws at n = 2 and 3, and chain points at n = 2 and 3."""
    rng = np.random.default_rng(1818)
    ms = [random_moduli_point(rng) for _ in range(120)]
    ms += [random_chain_moduli(rng, sign) for sign in (1.0, -1.0) for _ in range(15)]
    return [(m, n) for m in ms for n in (2, 3)]


# sha256 of the hex bits of every coordinate of every lift
LIFTS = "83c9f4ed4027a41f2cf47263c5d07a62b9b6007e4961aad0dbabdc9c91ea0514"


def test_reconstructed_lifts_keep_their_bits():
    bits = [[hex_bits(v) for P in reconstruct(m, n) for v in P.values]
            for m, n in lifts_corpus()]
    assert len(bits) == 300
    assert digest(bits) == LIFTS


def test_reconstruct_holds_x1_and_x2_to_its_own_config():
    m = ModuliPoint(1e-10, 1, 0, ZERO_ABS)  # F = -4e-10: realized in dimension 3
    assert len(reconstruct(m, 3, ZERO_ABS)) == 4
    with pytest.raises(ZeroCrossRatio):  # |X1| <= abs_tol = 1e-9
        reconstruct(m, 3)


@pytest.mark.parametrize("x2", [1e-160, 1e-170, 1e-310, 1e-155j])
def test_an_underflowing_x2_squared_is_an_underflow_error(x2):
    m = ModuliPoint(1, x2, 0, ZERO_ABS)
    message = rf"^\|X2\| = {re.escape(repr(abs(x2)))}: \|X2\|\^2 lies below the normal float"
    assert classify(m, ZERO_ABS).face_on_chain == chain_flags(m, ZERO_ABS)
    with pytest.raises(UnderflowError, match=message):
        reconstruct(m, 3, ZERO_ABS)
    with pytest.raises(UnderflowError, match=message):
        det_from_moduli(m)
    with pytest.raises(UnderflowError, match=message):
        face_dets_from_moduli(m)


@pytest.mark.parametrize("x1,x2,a", [(1e-170, 9e153, 0.0), (1e-170, 9e153, 0.3),
                                     (2e-160, 3e150, -0.7)])
def test_no_face_is_on_a_chain_when_its_normal_form_entry_underflows(x1, x2, a):
    # g24 = X1/X2 underflows to 0, whose 2 Re g24 read faces 2 and 4 as on a chain
    m = ModuliPoint(x1, x2, a, ZERO_ABS)
    assert classify(m, ZERO_ABS).face_on_chain == chain_flags(m, ZERO_ABS) == (False,) * 4


@pytest.mark.parametrize("x1,x2,a,error,message", [
    (1e-170, 9e153, 0.0, UnderflowError, r"^\|g24\| = 0\.0 lies below the normal float range$"),
    (1e300, 1e-10, 0.1, OverflowError, r"^g24 leaves the float range at \|X1\| = 1e\+300, "),
    (1.0, 5e307, 0.0, UnderflowError, r"^\|g14\| = 2e-308 lies below the normal float range$"),
])
def test_a_free_entry_outside_the_float_range_is_named(x1, x2, a, error, message):
    # no float normal form holds m: the entry's range error, not a check's verdict on it
    m = ModuliPoint(x1, x2, a, ZERO_ABS)
    for read in (gram_from_moduli, face_dets_from_moduli):
        with pytest.raises(error, match=message):
            read(m)


def test_normal_forms_of_a_checked_moduli_point_are_not_checked_again():
    # under NumericConfig(0, 0), |g13| = |e^{-iA}| rounds below 1 at 7 of these angles,
    # which a second check of the entries refused as NotNormalForm
    exact, realized = NumericConfig(0.0, 0.0), 0
    for a in np.linspace(-HALF_PI, HALF_PI, 315).tolist():
        m = ModuliPoint(1, 1, a, exact)
        gram_from_moduli(m)
        face_dets_from_moduli(m)
        if in_moduli_space(m, 3):
            realized += 1
            assert moduli_from_gram(normalize(gram_of(reconstruct(m, 3)), exact)).isclose(m)
    assert realized == 209


def test_a_large_x2_gives_face_determinants():
    # the underflow rule squares min(|X2|, 1): |X2|^2 = 1e400 itself would overflow
    assert all(map(math.isfinite, face_dets_from_moduli(ModuliPoint(1, 1e200, 0))))


def test_the_smallest_normal_x2_squared_still_classifies():
    x2 = 1.5e-154  # |X2|^2 = 2.25e-308, just above the smallest normal float
    m = ModuliPoint(2, x2, 0, ZERO_ABS)  # F = 1 - 8 X2 + X2^2
    assert classify(m, ZERO_ABS).det_sign == "positive"


def test_the_cli_reports_an_underflowing_x2_squared_as_malformed_input(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 3, "moduli": {"x1": [1, 0], "x2": [1e-170, 0], "a": 0}}))
    assert main(["--tol", "1e-320", "reconstruct", "--input", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "malformed-input",
        "detail": "|X2| = 1e-170: |X2|^2 lies below the normal float range"}
