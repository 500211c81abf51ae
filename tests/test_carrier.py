"""Lifts and Gram matrices store tuples of Python complex; numpy stays at the array edges."""

import ast
import cProfile
import json
import math
import os
import pstats
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chquad
from chquad import (
    BoundaryPoint,
    DimensionMismatch,
    GramMatrix,
    HermitianVector,
    ModuliPoint,
    NumericConfig,
    apply_isometry_point,
    classify,
    congruent_antiholomorphic,
    congruent_holomorphic,
    cross_ratio_triple,
    gram_of,
    in_moduli_space,
    moduli_coordinates,
    point_from_lift,
    random_isometry,
    reconstruct,
    standard_lift,
)
from chquad.sampling import KINDS, random_quadruple

QUAD = (BoundaryPoint.finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4),
        BoundaryPoint.finite([-0.5 + 0.1j, 0.8 + 0.9j], -1.3),
        BoundaryPoint.infinity(),
        BoundaryPoint.finite([1.2 + 0.6j, 0.05 - 0.4j], 2.2))
QUAD2 = (BoundaryPoint.finite([0.4 - 0.9j], 0.7), BoundaryPoint.finite([-1.3 + 0.2j], -0.4),
         BoundaryPoint.finite([0.6 + 1.1j], 1.9), BoundaryPoint.finite([0.05 - 0.3j], -2.6))
C_PLANE = ModuliPoint(0.5, 0.5, -math.pi / 2)  # takes reconstruct's zero-coordinate branch


def bits(z):
    return (z.real.hex(), z.imag.hex())


def lift_sources():
    lifts = [standard_lift(p, 3) for p in QUAD]
    g = random_isometry(3, np.random.default_rng(5))
    return {
        "standard_lift": lifts,
        "reconstruct n=2": reconstruct(moduli_coordinates(QUAD2), 2),
        "reconstruct n=3": reconstruct(moduli_coordinates(QUAD), 3),
        "reconstruct C-plane n=2": reconstruct(C_PLANE, 2),
        "reconstruct C-plane n=3": reconstruct(C_PLANE, 3),
        "apply_isometry": [HermitianVector(3, g.matrix @ P.coords) for P in lifts],
        "scaled": [P.scaled(0.3 - 1.7j) for P in lifts],
        "conjugated": [P.conjugated() for P in lifts],
        "from_json": [HermitianVector.from_json(P.to_json()) for P in lifts],
        "ndarray": [HermitianVector(2, np.array([1, 2.5, 3j])), HermitianVector(2, np.arange(3))],
    }


@pytest.mark.parametrize("lifts", [pytest.param(v, id=k) for k, v in lift_sources().items()])
def test_lifts_store_python_complex(lifts):
    for P in lifts:
        assert isinstance(P.values, tuple) and len(P.values) == P.n + 1
        assert all(type(v) is complex for v in P.values)
        coords = P.coords
        assert not coords.flags.writeable
        assert coords.dtype == complex and coords.shape == (P.n + 1,)
        assert [bits(complex(v)) for v in coords] == [bits(v) for v in P.values]


def test_gram_matrix_stores_rows():
    G = gram_of([standard_lift(p, 3) for p in QUAD])
    entries = G.entries
    assert not entries.flags.writeable and entries.shape == (4, 4)
    assert [[bits(complex(v)) for v in row] for row in entries] == \
        [[bits(v) for v in row] for row in G.rows]
    assert GramMatrix(4, G.entries).rows == G.rows
    assert GramMatrix(4, [list(row) for row in G.rows]).rows == G.rows
    with pytest.raises(TypeError):
        GramMatrix(4, G.rows, None, 1.0)


@pytest.mark.parametrize("coords,message", [
    ([[1, 0, 0]], "expected 3 coordinates for n=2, got shape (1, 3)"),
    ([1, 0], "expected 3 coordinates for n=2, got shape (2,)"),
    ("123", "expected 3 coordinates for n=2, got shape ()"),
    pytest.param(b"123", "expected 3 coordinates for n=2, got shape ()", id="bytes"),
])
def test_malformed_coordinates_name_their_shape(coords, message):
    with pytest.raises(DimensionMismatch) as info:
        HermitianVector(2, coords)
    assert str(info.value) == message


@pytest.mark.parametrize("coords,error,shape", [
    ([1, 0], DimensionMismatch, "(2,)"), ([1, 0, 0, 0], DimensionMismatch, "(4,)"),
    ((1, 0), DimensionMismatch, "(2,)"), ((1, 0, 0, 0), DimensionMismatch, "(4,)"),
    ([], DimensionMismatch, "(0,)"), ([[1, 0, 0]], DimensionMismatch, "(1, 3)"),
    ([1, [0], 0], DimensionMismatch, "ragged"), ([[1, 2], [3]], DimensionMismatch, "ragged"),
    (None, DimensionMismatch, "()"), (5, DimensionMismatch, "()"),
    ([None, 0, 0], TypeError, None), ((0, object(), 0), TypeError, None),
    ([0, 0, {1: 2}], TypeError, None), ([1.0, 0, b"1"], TypeError, None),
    (["abc", 0, 0], ValueError, None), ("1j0", ValueError, None),
    (np.array([1, 0]), DimensionMismatch, "(2,)"), (np.zeros((1, 3)), DimensionMismatch, "(1, 3)"),
    (np.array([None, 0, 0], dtype=object), TypeError, None),
    (bytearray(b"123"), TypeError, None),
])
def test_malformed_coordinates_raise_what_they_always_raised(coords, error, shape):
    # a wrong shape is named in the package's own message; any other error is complex()'s
    with pytest.raises(Exception) as info:
        HermitianVector(2, coords)
    assert type(info.value) is error
    if shape is not None:
        assert str(info.value) == f"expected 3 coordinates for n=2, got shape {shape}"


@pytest.mark.parametrize("coords", [
    [1, 2.5, 3j], (1, 2.5, 3j), ["1", "2j", 0], [True, False, 1],
    np.array([1, 2.5, 3j]), [np.float64(-0.0), np.complex128(1j), 2],
])
def test_coordinates_are_stored_as_complex_reads_them(coords):
    values = HermitianVector(2, coords).values
    assert [bits(v) for v in values] == [bits(complex(v)) for v in coords]
    assert all(type(v) is complex for v in values)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: HermitianVector(2, [[1, 2], [3]]), id="lift"),
    pytest.param(lambda: GramMatrix(4, [[0, 1, 1, 1]] * 3 + [[0, 1]]), id="gram"),
])
def test_ragged_input_is_a_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch, match="ragged"):
        build()


def test_a_none_coordinate_is_rejected():
    with pytest.raises(TypeError):
        HermitianVector(2, [None, 0, 0])


def test_proportional_to_edge_cases():
    Z = HermitianVector(2, [1j, 0, 1])
    assert Z.proportional_to(Z.scaled(-2.5 + 1j))
    assert not Z.proportional_to(HermitianVector(2, [1j, 0, 2]))
    assert not Z.proportional_to(HermitianVector(2, [math.nan, 0, 0]))
    assert not Z.proportional_to(HermitianVector(3, [1j, 0, 0, 1]))
    assert HermitianVector(2, [0, 0, 0]).proportional_to(HermitianVector(2, [0, 0, 0]))


def profiled_calls(fn) -> dict:
    """(filename, line, name) of each function called while fn runs -> its number of calls."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    return {key: stat[1] for key, stat in pstats.Stats(profile).stats.items()}


def numpy_calls(fn) -> int:
    """Calls of numpy functions and of ndarray.tolist/setflags while fn runs."""
    return sum(calls for (filename, _, name), calls in profiled_calls(fn).items()
               if "numpy" in filename or "numpy" in name or "tolist" in name
               or "setflags" in name)


def runs(func, fn) -> int:
    """Calls of the Python function func while fn runs."""
    code = func.__code__
    return sum(calls for (filename, line, _), calls in profiled_calls(fn).items()
               if (filename, line) == (code.co_filename, code.co_firstlineno))


def checks(cls, fn) -> int:
    """Runs of cls's own checks (its __init__) while fn runs."""
    return runs(cls.__init__, fn)


def invariants_op():
    m = moduli_coordinates(QUAD)
    return cross_ratio_triple(QUAD), classify(m), in_moduli_space(m, 3)


def roundtrip_op():
    """The benchmark's roundtrip op on QUAD: reconstruct, dehomogenize, three congruences."""
    m = moduli_coordinates(QUAD)
    g = random_isometry(3, np.random.default_rng(6))
    moved = tuple(apply_isometry_point(g, p) for p in QUAD)
    mirrored = tuple(p.mirror() for p in QUAD)

    def op():
        rebuilt = tuple(point_from_lift(P) for P in reconstruct(m, 3))
        return (congruent_holomorphic(QUAD, rebuilt), congruent_holomorphic(QUAD, moved),
                congruent_antiholomorphic(QUAD, mirrored))

    return op


def test_invariants_and_roundtrip_ops_call_no_numpy():
    assert numpy_calls(invariants_op) == 0
    assert numpy_calls(roundtrip_op()) == 0


def test_points_reach_the_gram_kernel_without_lift_objects():
    # the points -> Gram path lifts to plain coordinate lists; reconstruct builds its four
    # output lifts without HermitianVector's checks on outside input
    assert checks(HermitianVector, invariants_op) == 0
    assert checks(HermitianVector, roundtrip_op()) == 0
    for kind in KINDS:
        rng = np.random.default_rng(7)
        assert checks(HermitianVector, lambda: random_quadruple(3, kind, rng)) == 0


def test_the_inverse_path_checks_nothing_it_has_built():
    # reconstruct reads F once, for membership and for its zero-coordinate branch; the
    # congruences and random_quadruple's acceptance read coordinates through ModuliPoint's
    # guard and build no value
    from chquad.invariants import _residual

    m = moduli_coordinates(QUAD)
    assert runs(_residual, lambda: reconstruct(m, 3)) == 1
    assert runs(_residual, lambda: reconstruct(C_PLANE, 3)) == 1
    assert checks(ModuliPoint, roundtrip_op()) == 0
    rng = np.random.default_rng(7)
    assert checks(ModuliPoint, lambda: [random_quadruple(3, k, rng) for k in KINDS]) == 0


def reconstruct_corpus():
    """(m, n, cfg): a quadruple of every kind at n = 2, 3, 4 under two configs, and chain
    points on both branches of reconstruct: C_PLANE takes the zero-coordinate one, and a
    member 1e-9 off A = -pi/2 at tol 1e-3 the rotation one."""
    coarse = NumericConfig(1e-3, 1e-3)
    corpus = [(C_PLANE, n, None) for n in (2, 3, 4)]
    corpus += [(ModuliPoint(0.5, 0.5, math.pi / 2), n, None) for n in (2, 3, 4)]
    chain = ModuliPoint(0.9565095874629154, -0.0017980407308533536 - 0.00516986191015801j,
                        -1.5707963257948965, coarse)
    corpus += [(chain, n, coarse) for n in (2, 3, 4)]
    for cfg in (None, coarse):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for kind in KINDS:
                for _ in range(5):
                    corpus.append((moduli_coordinates(random_quadruple(n, kind, rng, cfg), cfg),
                                   n, cfg))
    return corpus


def test_reconstruct_builds_the_values_hermitian_vector_would_store():
    for m, n, cfg in reconstruct_corpus():
        for P in reconstruct(m, n, cfg):
            assert type(P) is HermitianVector and P.n == n
            assert isinstance(P.values, tuple) and len(P.values) == n + 1
            assert all(type(v) is complex for v in P.values)
            assert [bits(v) for v in P.values] == \
                [bits(v) for v in HermitianVector(n, P.values).values]


def test_an_invariants_op_runs_no_gram_matrix_checks():
    # gram_of decides coincidence once, per pair; GramMatrix does not decide again
    assert checks(GramMatrix, invariants_op) == 0


def test_each_op_runs_the_closed_form_kernel_and_builds_no_gram_matrix():
    # the invariants op reads its moduli and its triple off one kernel run each; the
    # roundtrip op's three congruences take two each; the rows are never wrapped
    from chquad.gram import _points_rows, _set_gram

    assert (runs(_points_rows, invariants_op), runs(_set_gram, invariants_op)) == (2, 0)
    assert (runs(_points_rows, roundtrip_op()), runs(_set_gram, roundtrip_op())) == (6, 0)


def test_a_second_kernel_run_reads_no_point_again():
    # each finite point keeps the kernel's read of its coordinates from its first run
    invariants_op()
    reads = [p._read for p in QUAD]
    assert [r is None for r in reads] == [p.at_infinity for p in QUAD]
    invariants_op()
    roundtrip_op()()
    assert all(p._read is r for p, r in zip(QUAD, reads))


def test_a_directly_built_gram_matrix_runs_its_checks():
    G = gram_of([standard_lift(p, 3) for p in QUAD])
    assert checks(GramMatrix, lambda: GramMatrix(4, G.rows)) == 1


def test_the_package_builds_its_normal_forms_without_checking_them_again():
    # the moduli point's guard has run; only a normal form a caller hands in is checked
    from chquad import NormalizedGram, gram_from_moduli, normalized_gram_of_points

    G = gram_from_moduli(moduli_coordinates(QUAD))
    assert checks(NormalizedGram, lambda: (gram_from_moduli(moduli_coordinates(QUAD)),
                                           normalized_gram_of_points(QUAD), G.conjugate())) == 0
    assert checks(NormalizedGram, lambda: NormalizedGram.from_json(G.to_json())) == 1
    assert checks(NormalizedGram, lambda: NormalizedGram(G.g13, G.g14, G.g24)) == 1


def imports_of(modules, nodes, where="module"):
    """Where each import of one of modules among nodes runs: on import of the module
    ("module"), only for a type checker ("type-checking"), or when a function is called
    ("function")."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(name.split(".")[0] in modules for name in names):
                yield where
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from imports_of(modules, ast.iter_child_nodes(node), "function")
        elif (isinstance(node, ast.If) and where == "module"
              and ast.unparse(node.test) == "TYPE_CHECKING"):
            yield from imports_of(modules, node.body, "type-checking")
            yield from imports_of(modules, node.orelse, where)
        else:
            yield from imports_of(modules, ast.iter_child_nodes(node), where)


def test_numpy_is_imported_only_at_the_array_edges():
    in_functions = set()
    for path in Path(chquad.__file__).parent.glob("*.py"):
        where = set(imports_of({"numpy"}, ast.parse(path.read_text()).body))
        assert "module" not in where, f"{path.name} imports numpy at module level"
        if "function" in where:
            in_functions.add(path.name)
    assert in_functions and in_functions <= {"hermitian.py", "gram.py", "sampling.py", "cli.py"}


def test_only_reconstruct_reaches_the_lift_side():
    # the points side imports nothing of the lift side when it loads; reconstruct, which
    # builds lifts, imports hermitian when it is called, and so does random_isometry, which
    # builds an Isometry
    src = Path(chquad.__file__).parent
    where = {name: list(imports_of({"hermitian", "gram"}, ast.parse(
                 (src / f"{name}.py").read_text()).body))
             for name in ("numeric", "errors", "points", "invariants", "moduli", "varieties",
                          "sampling")}
    assert where == {"numeric": [], "errors": [], "points": [], "invariants": [],
                     "moduli": ["function"], "varieties": [],
                     "sampling": ["type-checking", "function"]}


def test_sampling_and_varieties_read_invariants_not_moduli():
    # both run the forward map alone, which invariants holds; moduli's membership test and
    # reconstruct are for other commands
    src = Path(chquad.__file__).parent
    for name in ("sampling", "varieties"):
        assert not list(imports_of({"moduli"}, ast.parse((src / f"{name}.py").read_text()).body))


def test_no_module_imports_dataclasses_inspect_or_csv_at_load():
    # each costs milliseconds of every CLI start; csv is for `slice`, dataclasses for
    # the error a frozen value raises
    modules = {"dataclasses", "inspect", "csv"}
    for path in Path(chquad.__file__).parent.glob("*.py"):
        where = set(imports_of(modules, ast.parse(path.read_text()).body))
        assert "module" not in where, f"{path.name} imports one of {modules} at module level"


# Runs each argv through cli.main in one fresh interpreter, then reports the exit codes
# and whether numpy was loaded, on stderr, as stdout carries the commands' output.
CLI_SCRIPT = """
import json, sys
import chquad, chquad.cli
codes = [chquad.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def run_cli_fresh(*argvs):
    env = {**os.environ, "PYTHONPATH": str(Path(chquad.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", CLI_SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stderr.splitlines()[-1])


INPUT_COMMANDS = ("invariants", "normalize", "reconstruct", "check-moduli", "congruent")


@pytest.fixture
def cli_argvs(tmp_path):
    """One argv per command, with its input written under tmp_path; "malformed" is a list
    of argvs, each command that reads --input on truncated JSON."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return ["--input", str(path)]

    quad = {"n": 3, "points": [p.to_json() for p in QUAD]}
    moduli = write("moduli.json", {"n": 3, "moduli": moduli_coordinates(QUAD).to_json()})
    lifts = {"lifts": [standard_lift(p, 3).scaled(0.5 + 2j).to_json() for p in QUAD]}
    truncated = write("malformed.json", '{"n": 2, "points": [')
    return {
        "invariants": ["invariants", *write("quad.json", quad)],
        "congruent": ["congruent", *write("pair.json", {"first": quad, "second": quad})],
        "check-moduli": ["check-moduli", *moduli],
        "reconstruct": ["reconstruct", *moduli],
        "normalize": ["normalize", *write("lifts.json", lifts)],
        "counterexample": ["counterexample", "--t", "2"],
        "slice": ["slice", "--a", "0.3", "--x1-steps", "3", "--x2-steps", "3"],
        "malformed": [[command, *truncated] for command in INPUT_COMMANDS],
        "sample": ["sample", "--n", "2", "--count", "1"],
    }


def test_only_sample_loads_numpy(cli_argvs):
    argvs = [argv for command, argv in cli_argvs.items() if command not in ("sample", "malformed")]
    assert run_cli_fresh(*argvs, *cli_argvs["malformed"]) == {"codes": [0] * 7 + [2] * 5,
                                                              "numpy": False}
    sample = cli_argvs["sample"]
    assert run_cli_fresh(sample) == {"codes": [0], "numpy": True}


# Imports chquad in a fresh interpreter, runs each argv (if any) through cli.main, and
# reports main's exit codes and every loaded module, on stderr.
LOADS_SCRIPT = """
import json, sys
import chquad
argvs = json.loads(sys.argv[1])
if argvs:
    import chquad.cli
codes = [chquad.cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def loaded_by(*argvs):
    env = {**os.environ, "PYTHONPATH": str(Path(chquad.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", LOADS_SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stderr.splitlines()[-1])
    return result["codes"], set(result["modules"])


def test_import_chquad_loads_no_submodule():
    _, modules = loaded_by()
    assert "chquad" in modules
    assert not {m for m in modules if m.startswith("chquad.")}
    assert not modules & {"dataclasses", "inspect", "numpy", "csv"}


POINTS_SIDE = {"cli", "errors", "numeric", "points", "invariants", "moduli"}
# the chquad modules each command loads besides the package itself, and the chquad source
# lines those and __init__.py held when they were pinned; the line pins allow 2% growth
LOADED = {
    "invariants": (POINTS_SIDE, 1461),
    "congruent": (POINTS_SIDE - {"moduli"}, 1230),
    "check-moduli": (POINTS_SIDE, 1461),
    "slice": (POINTS_SIDE - {"moduli"}, 1230),
    "counterexample": (POINTS_SIDE - {"moduli"} | {"varieties"}, 1296),
    "reconstruct": (POINTS_SIDE | {"hermitian"}, 1782),
    "normalize": (POINTS_SIDE - {"moduli"} | {"hermitian", "gram"}, 1730),
    "sample": (POINTS_SIDE - {"moduli"} | {"sampling"}, 1360),
    "malformed": ({"cli", "errors", "numeric"}, 647),
}


def source_lines(module: str) -> int:
    name = "__init__" if module == "chquad" else module.split(".")[1]
    return len((Path(chquad.__file__).parent / f"{name}.py").read_text().splitlines())


@pytest.mark.parametrize("command", list(LOADED))
def test_each_command_loads_only_what_it_runs(cli_argvs, command):
    argvs = cli_argvs[command] if command == "malformed" else [cli_argvs[command]]
    codes, modules = loaded_by(*argvs)
    assert codes == [2 if command == "malformed" else 0] * len(argvs)
    ours = {m for m in modules if m == "chquad" or m.startswith("chquad.")}
    names, lines = LOADED[command]
    assert ours == {"chquad"} | {f"chquad.{name}" for name in names}
    assert sum(map(source_lines, ours)) <= 1.02 * lines
    if command != "sample":
        assert not modules & {"dataclasses", "inspect", "numpy"}
    assert not modules & {"argparse", "gettext", "locale"}  # argv is read off cli.COMMANDS
    assert ("csv" in modules) == (command == "slice")
