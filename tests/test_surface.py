"""The public surface: lazily resolved names, and the immutable value classes."""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chquad
from chquad import (BoundaryPoint, Certificate, ClassificationReport, CrossRatioTriple,
                    GramMatrix, HermitianVector, Isometry, ModuliPoint, NormalizedGram,
                    NumericConfig)

# The names ``chquad`` exports, by defining module.
EXPORTS = {
    "errors": ["CartanOutOfRange", "CertificateFailure", "CoincidentPoints", "DegenerateBasis",
               "DegenerateEntry", "DimensionMismatch", "GeometryError", "InconsistentGram",
               "InvalidFace", "InvalidParameter", "NotInModuliSpace", "NotIsometry",
               "NotNormalForm", "NotNull", "PreconditionViolated", "ResamplingExhausted",
               "UnderflowError", "ZeroCrossRatio", "ZeroVector"],
    "gram": ["GramMatrix", "NormalizedGram", "cartan_from_lifts", "cross_ratio_from_lifts",
             "det_face", "det_gram", "gram_from_moduli", "gram_of", "gram_of_points",
             "moduli_from_gram", "normalize", "normalized_gram_of_points"],
    "hermitian": ["HermitianVector", "Isometry", "apply_isometry_point", "form_matrix",
                  "point_from_lift", "signature_basis", "standard_lift"],
    "invariants": ["CrossRatioTriple", "FACES", "ModuliPoint", "cartan",
                   "congruent_antiholomorphic", "congruent_holomorphic", "cross_ratio",
                   "cross_ratio_triple"],
    "moduli": ["ClassificationReport", "classify", "det_from_moduli", "face_dets_from_moduli",
               "in_moduli_space", "moduli_coordinates", "moduli_residual", "positivity_check",
               "real_slice_residual", "reconstruct", "residual_scale"],
    "numeric": ["NumericConfig", "resolve", "small"],
    "points": ["BoundaryPoint", "infer_dimension"],
    "sampling": ["random_boundary_point", "random_chain_moduli", "random_isometry",
                 "random_moduli_point", "random_quadruple"],
    "varieties": ["Certificate", "certify_noninjectivity", "counterexample_pair",
                  "project_moduli", "variety_residuals"],
}
# Names that moved to a module lower in the import graph, by the module that defined them
# before: each stays a name of that module too.
MOVED = {
    "hermitian": ["BoundaryPoint", "infer_dimension"],
    "gram": ["FACES", "congruent_antiholomorphic", "congruent_holomorphic"],
}


def test_all_names_the_exports():
    assert sorted(chquad.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    assert set(chquad.__all__) <= set(dir(chquad))


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"chquad.{module}")
    for name in EXPORTS[module]:
        assert getattr(chquad, name) is getattr(defining, name), name


@pytest.mark.parametrize("module", list(MOVED))
def test_a_moved_name_resolves_at_its_former_path(module):
    former = importlib.import_module(f"chquad.{module}")
    for name in MOVED[module]:
        assert getattr(former, name) is getattr(chquad, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from chquad import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(chquad.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        chquad.no_such_name
    assert not hasattr(chquad, "set_default_config")


# Reads chquad.<submodule> as an attribute right after `import chquad`, before anything
# has imported the submodule, in a fresh interpreter.
SUBMODULE_SCRIPT = """
import json, sys
import chquad
names = json.loads(sys.argv[1])
print(json.dumps([getattr(chquad, name).__name__ for name in names]))
"""


def test_submodules_are_attributes_of_the_package():
    names = list(EXPORTS)
    env = {**os.environ, "PYTHONPATH": str(Path(chquad.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", SUBMODULE_SCRIPT, json.dumps(names)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == [f"chquad.{name}" for name in names]


def test_sampling_kinds_is_the_one_tuple():
    from chquad.sampling import KINDS
    assert KINDS == ("generic", "c_plane", "r_plane", "subspace2")


TRIPLE = CrossRatioTriple(0.5, 0.5, -1.0)
MODULI = ModuliPoint(0.5, 0.5, -math.pi / 2)

# (class, positional arguments, the repr such an instance had as a dataclass)
VALUES = [
    (NumericConfig, (1e-6, 1e-8), "NumericConfig(abs_tol=1e-06, rel_tol=1e-08)"),
    (HermitianVector, (2, [1j, 0, 1]), "HermitianVector(n=2, values=(1j, 0j, (1+0j)))"),
    (BoundaryPoint, (False, (0.5 - 1j,), 2.0),
     "BoundaryPoint(at_infinity=False, z=((0.5-1j),), t=2.0)"),
    (Isometry, (1, [[1, 0], [0, 1]]),
     "Isometry(n=1, matrix=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]]))"),
    (GramMatrix, (3, [[0, 1, 2j], [1, 0, -1], [-2j, -1, 0]]), "GramMatrix(m=3)"),
    (NormalizedGram, (1j, 2 + 0j, 0.5 - 1j),
     "NormalizedGram(g13=1j, g14=(2+0j), g24=(0.5-1j))"),
    (ModuliPoint, (0.5, 0.5, -math.pi / 2),
     "ModuliPoint(x1=(0.5+0j), x2=(0.5+0j), cartan=-1.5707963267948966)"),
    (CrossRatioTriple, (1 + 0j, 2j, 0.5), "CrossRatioTriple(x1=(1+0j), x2=2j, x3=0.5)"),
    (ClassificationReport, (-0.25, (False, True, False, False), False, False, False, False,
                            "negative"),
     "ClassificationReport(residual=-0.25, face_on_chain=(False, True, False, False), "
     "is_c_plane=False, is_r_plane=False, in_real_slice=False, in_singular_set=False, "
     "det_sign='negative')"),
    (Certificate, (2.0, (BoundaryPoint.infinity(),), (), {"12": [1.0, 0.0]}, {}, TRIPLE, TRIPLE,
                   MODULI, MODULI, False, True),
     "Certificate(t=2.0, quadruple=(BoundaryPoint(at_infinity=True, z=(), t=0.0),), "
     "mirror_quadruple=(), products={'12': [1.0, 0.0]}, mirror_products={}, "
     "triple=CrossRatioTriple(x1=0.5, x2=0.5, x3=-1.0), "
     "mirror_triple=CrossRatioTriple(x1=0.5, x2=0.5, x3=-1.0), "
     "moduli=ModuliPoint(x1=(0.5+0j), x2=(0.5+0j), cartan=-1.5707963267948966), "
     "mirror_moduli=ModuliPoint(x1=(0.5+0j), x2=(0.5+0j), cartan=-1.5707963267948966), "
     "holomorphic_congruent=False, antiholomorphic_congruent=True)"),
]
IDENTITY_EQ = {HermitianVector, GramMatrix, Isometry}
WITH_CFG = {Isometry, GramMatrix, NormalizedGram, ModuliPoint}


def value_params():
    return [pytest.param(cls, args, text, id=cls.__name__) for cls, args, text in VALUES]


@pytest.mark.parametrize("cls,args,text", value_params())
def test_repr_is_unchanged(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,args,text", value_params())
def test_equality_and_hash(cls, args, text):
    value, twin = cls(*args), cls(*args)
    assert value == value
    if cls in IDENTITY_EQ:
        assert value != twin and hash(value) == object.__hash__(value)
        return
    assert value == twin and not value != twin
    assert value != object() and value != args
    if cls is Certificate:  # a dict field: unhashable, as its dataclass was
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    if cls in WITH_CFG:
        other = cls(*args, NumericConfig(1e-3, 1e-3))
        assert other.cfg is not value.cfg
        assert other == value and hash(other) == hash(value)


def test_equality_compares_every_field():
    assert ModuliPoint(0.5, 0.5, 1.0) != ModuliPoint(0.5, 0.5, -1.0)
    assert CrossRatioTriple(1, 2, 3) != CrossRatioTriple(1, 2, 4)
    assert NumericConfig(1e-6, 1e-9) != NumericConfig(1e-9, 1e-9)
    assert BoundaryPoint(False, (1j,), 0.0) != BoundaryPoint(False, (1j,), 1.0)


@pytest.mark.parametrize("cls,args,text", value_params())
def test_values_are_frozen(cls, args, text):
    value = cls(*args)
    name = cls._fields[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.new_attribute = 1
    with pytest.raises(TypeError):
        cls(*args, *([None] * (2 if cls in WITH_CFG else 1)))
