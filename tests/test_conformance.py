"""Every integer intake refuses what is not an integer, through ``errors``.

Each public intake of an integer array sends it through
``errors.check_integers``, and each intake of an integer scalar through
``errors.check_integer``.  The tables below hold one row per intake.  An
array intake must refuse a float, Python bools, a bool among ints, a boolean
array, a Python int beyond int64 and a uint64 entry of 2^63 or more with
``DomainError``, and ragged rows with ``DimensionError``; an int8, uint16 or
int64 array must give the result of the list of ints.  A scalar intake must
refuse a float, a bool, a string and an array with ``DomainError``, give the
Python int's result for a numpy integer, and read an integer beyond int64
exactly.
Every modulus intake must refuse n outside [2, 2^31 - 1] with
``ModulusError``, ``RootOfUnity`` an element that is not a primitive root of
its order, and every intake that checks a shape a value of the wrong shape
with ``DimensionError``.  Source tests check that the modulus and mu_n messages
are each written once, and by the AST that no module but ``errors.py`` reads
a dtype's kind or compares a dtype with ``object``.
"""

import ast
import pathlib

import numpy as np
import pytest

from abelcentral import heisenberg, modring
from abelcentral.cohomology import (
    CentralExtension,
    Cocycle2,
    H2Class,
    SElement,
    embedding_solvable,
    make_U_B,
    special_elements,
)
from abelcentral.errors import (
    DimensionError,
    DomainError,
    HypothesisError,
    ModulusError,
    check_integer,
    check_integers,
)
from abelcentral.finfield import KummerCharacter, RootOfUnity, make_field, omega
from abelcentral.groups import TableGroup, central_series, cyclic_group, elementary_coords
from abelcentral.modring import ModMatrix
from abelcentral.tables import FnTable

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abelcentral"

F5, F9, F13 = make_field(5, n=2), make_field(3, k=2, n=2), make_field(13, n=3)
C2, C4 = cyclic_group(2), cyclic_group(4)
EXT = CentralExtension(C4, C2, [0, 1, 0, 1])
IDENTITY_2 = ModMatrix.from_rows([[1, 0], [0, 1]], 5)
SPAN = modring.canonicalize(ModMatrix.from_rows([[1, 2]], 5))


def _lists(x):
    """Nested lists of a result built from arrays, tuples and numpy scalars."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (tuple, list)):
        return [_lists(v) for v in x]
    return x.item() if isinstance(x, np.generic) else x


# (name, call of the intake on one value, a valid value as nested lists of ints)
ARRAY_INTAKES = [
    ("ModMatrix entries", lambda v: ModMatrix(5, v).entries, [[1, 7], [3, 2]]),
    ("from_rows", lambda v: ModMatrix.from_rows(v, 5).entries, [[1, 7], [3, 2]]),
    ("solve_linear b", lambda v: modring.solve_linear(IDENTITY_2, v), [1, 2]),
    ("membership v", lambda v: modring.membership(SPAN, v), [2, 4]),
    ("Cocycle2 values", lambda v: Cocycle2(C2, 2, v).values, [[0, 0], [0, 1]]),
    ("make_U_B x", lambda v: [c.values for c in make_U_B(2, 2, v, [0, 1])], [1, 0]),
    ("make_U_B y", lambda v: [c.values for c in make_U_B(2, 2, [1, 0], v)], [0, 1]),
    ("H2Class cup", lambda v: H2Class(2, 4, v, [1, 1]).coeff_vector(), [[1, 2], [3, 0]]),
    ("H2Class bockstein", lambda v: H2Class(2, 4, [[0, 1], [0, 0]], v).coeff_vector(), [1, 3]),
    ("H2Class.from_coeff_vector", lambda v: H2Class.from_coeff_vector(2, 4, v).coeff_vector(), [1, 2, 3]),
    ("SElement F", lambda v: SElement(2, 4, v, [2, 0]).F, [[0, 1], [3, 0]]),
    ("SElement g", lambda v: SElement(2, 4, [[0, 1], [3, 0]], v).g, [2, 0]),
    ("special_elements s", lambda v: [(e.F, e.g) for e in special_elements(v, [0, 1], 3)], [1, 2]),
    ("special_elements t", lambda v: [(e.F, e.g) for e in special_elements([1, 2], v, 3)], [0, 1]),
    ("CentralExtension proj", lambda v: CentralExtension(C4, C2, v).kernel, [0, 1, 0, 1]),
    ("embedding_solvable phi", lambda v: embedding_solvable(C4, EXT, v), [0, 1, 0, 1]),
    ("FnTable values", lambda v: FnTable(F5, 2, v).values, [[0, 1], [1, 0], [1, 1]]),
    ("TableGroup table", lambda v: TableGroup(table=v).table, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    ("subgroup_closure", lambda v: C4.subgroup_closure(v), [2]),
    ("is_subgroup", lambda v: C4.is_subgroup(v), [0, 2]),
    ("is_normal", lambda v: C4.is_normal(v), [0, 2]),
    ("quotient", lambda v: C4.quotient(v)[1], [0, 2]),
    ("subgroup_table", lambda v: C4.subgroup_table(v)[1], [0, 2]),
    ("FqField.add", lambda v: F9.add(v, v), [[1, 2], [4, 8]]),
    ("FqField.one_minus", lambda v: F13.one_minus(v), [2, 7, 12]),
    ("make_field poly", lambda v: make_field(3, k=2, poly=v, n=2).descriptor(), [1, 0, 1]),
    ("make_field poly k = 1", lambda v: make_field(13, poly=v, n=3).descriptor(), [12, 1]),
]


def _replace_first(value, leaf):
    """``value`` with its first leaf ``x`` replaced by ``leaf(x)``."""
    if isinstance(value[0], list):
        return [_replace_first(value[0], leaf)] + value[1:]
    return [leaf(value[0])] + value[1:]


def _uint64_beyond_int64(value):
    arr = np.array(value, dtype=np.uint64)
    arr.flat[0] += np.uint64(2**63)
    return arr


def _ragged(value):
    if isinstance(value[0], list):
        return [value[0] + [0]] + value[1:]
    return [value, value + [0]]


BAD_ARRAYS = {
    "float": (lambda v: _replace_first(v, lambda x: x + 0.5), DomainError),
    "integral floats": (lambda v: np.array(v, dtype=float), DomainError),
    "bools": (lambda v: (np.array(v) % 2 == 1).tolist(), DomainError),
    "bool mask": (lambda v: np.array(v) % 2 == 1, DomainError),
    "int beyond int64": (lambda v: _replace_first(v, lambda x: x + 2**64), DomainError),
    "uint64 beyond int64": (_uint64_beyond_int64, DomainError),
    "ragged rows": (_ragged, DimensionError),
    "bool among ints": (lambda v: _replace_first(v, lambda x: True), DomainError),
}


@pytest.mark.parametrize("name,call,valid", ARRAY_INTAKES, ids=[row[0] for row in ARRAY_INTAKES])
@pytest.mark.parametrize("kind", list(BAD_ARRAYS))
def test_array_intake_refuses(name, call, valid, kind):
    make, error = BAD_ARRAYS[kind]
    with pytest.raises(error):
        call(make(valid))


@pytest.mark.parametrize("name,call,valid", ARRAY_INTAKES, ids=[row[0] for row in ARRAY_INTAKES])
@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
def test_array_intake_any_integer_dtype(name, call, valid, dtype):
    assert _lists(call(np.array(valid, dtype=dtype))) == _lists(call(valid))


def test_array_intakes_keep_their_results():
    # The results of the valid lists, as the intakes gave them before they
    # went through the guard.
    results = {name: _lists(call(valid)) for name, call, valid in ARRAY_INTAKES}
    assert results["ModMatrix entries"] == results["from_rows"] == [[1, 2], [3, 2]]
    assert results["solve_linear b"] == [1, 2] and results["membership v"] is True
    assert results["H2Class cup"] == [3, 3, 1] and results["H2Class.from_coeff_vector"] == [1, 2, 3]
    assert results["CentralExtension proj"] == [0, 2]
    assert results["embedding_solvable phi"] == [True, [0, 1, 2, 3]]
    assert results["subgroup_closure"] == [0, 2] and results["quotient"] == [0, 1, 0, 1]
    assert results["FqField.one_minus"] == [12, 7, 2]
    assert results["make_field poly"]["poly"] == [1, 0, 1]


# (name, call of the intake on one value, a valid value)
SCALAR_INTAKES = [
    ("make_field p", lambda v: make_field(v, n=2).descriptor(), 13),
    ("make_field k", lambda v: make_field(3, k=v, n=2).descriptor(), 2),
    ("make_field n", lambda v: make_field(13, n=v).descriptor(), 3),
    ("KummerCharacter n", lambda v: KummerCharacter(F13, v, 1)(2), 3),
    ("KummerCharacter c", lambda v: KummerCharacter(F13, 3, v)(2), 2),
    ("cyclic_group", lambda v: cyclic_group(v).table, 4),
    ("elementary_coords n", lambda v: elementary_coords(v, 2), 3),
    ("elementary_coords k", lambda v: elementary_coords(2, v), 3),
    ("to_table_group", lambda v: heisenberg.to_table_group(v).table, 2),
    ("verify_laws", lambda v: heisenberg.verify_laws(v), 2),
    ("ModMatrix modulus", lambda v: ModMatrix(v, [[7]]).entries, 5),
    ("binom2", lambda v: modring.binom2(v), 4),
    ("Cocycle2 n", lambda v: Cocycle2(C2, v, [[0, 0], [0, 1]]).values, 2),
    ("FnTable n", lambda v: FnTable(F5, v, [[0, 1], [1, 0], [1, 1]]).values, 2),
    ("H2Class k", lambda v: H2Class(v, 4, [[1, 2], [3, 0]], [1, 1]).coeff_vector(), 2),
    ("H2Class.from_coeff_vector k", lambda v: H2Class.from_coeff_vector(v, 4, [1, 2, 3]).coeff_vector(), 2),
    ("SElement k", lambda v: SElement(v, 4, [[0, 1], [3, 0]], [2, 0]).F, 2),
    ("H2Class n", lambda v: H2Class(2, v, [[1, 2], [3, 0]], [1, 1]).coeff_vector(), 4),
    ("SElement n", lambda v: SElement(2, v, [[0, 1], [3, 0]], [2, 0]).F, 4),
    ("special_elements n", lambda v: [(e.F, e.g) for e in special_elements([1, 2], [0, 1], v)], 3),
    ("omega n", lambda v: omega(F13, v).element, 3),
    ("central_series n", lambda v: central_series(C4, v).sizes, 2),
    ("RootOfUnity order", lambda v: RootOfUnity(F13, 3, v).element, 3),
    ("AbelianStructure factor", lambda v: modring.AbelianStructure((2, v)).invariant_factors, 4),
    ("from_rows cols", lambda v: ModMatrix.from_rows([], 5, cols=v).entries.shape, 2),
]

BAD_SCALARS = {
    "integral float": float,
    "float": lambda v: v + 0.5,
    "bool": lambda v: True,
    "numpy bool": lambda v: np.True_,
    "array": lambda v: np.array([v]),
    "list": lambda v: [v],
    "string": str,
}


@pytest.mark.parametrize("name,call,valid", SCALAR_INTAKES, ids=[row[0] for row in SCALAR_INTAKES])
@pytest.mark.parametrize("kind", list(BAD_SCALARS))
def test_scalar_intake_refuses(name, call, valid, kind):
    with pytest.raises(DomainError, match="must be an integer"):
        call(BAD_SCALARS[kind](valid))


@pytest.mark.parametrize("name,call,valid", SCALAR_INTAKES, ids=[row[0] for row in SCALAR_INTAKES])
@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
def test_scalar_intake_any_integer_type(name, call, valid, dtype):
    assert _lists(call(dtype(valid))) == _lists(call(valid))


def _outcome(call, value):
    """("ok", result) or ("refused", the error type of ``errors``)."""
    try:
        return "ok", _lists(call(value))
    except (DomainError, DimensionError, ModulusError, HypothesisError) as exc:
        return "refused", type(exc)


@pytest.mark.parametrize("name,call,valid", SCALAR_INTAKES, ids=[row[0] for row in SCALAR_INTAKES])
def test_scalar_intake_reads_big_integers_exactly(name, call, valid):
    # A scalar is read as a Python int, so 2^63 as a uint64 is 2^63, never
    # a wrapped int64; each intake answers or refuses with a typed error.
    assert _outcome(call, np.uint64(2**63)) == _outcome(call, 2**63)
    _outcome(call, 2**70)


@pytest.mark.parametrize("cols", [-1, 2**60])
def test_from_rows_column_count_range(cols):
    # -1 raised numpy's bare ValueError ("negative dimensions are not allowed").
    with pytest.raises(DomainError, match="column count"):
        ModMatrix.from_rows([], 5, cols=cols)


MODULUS_NAMES = {
    "ModMatrix modulus", "binom2", "Cocycle2 n", "FnTable n", "H2Class n", "SElement n", "special_elements n",
    "make_field n", "KummerCharacter n", "omega n", "RootOfUnity order", "central_series n",
    "to_table_group", "verify_laws", "elementary_coords n",
}
MODULUS_INTAKES = [row for row in SCALAR_INTAKES if row[0] in MODULUS_NAMES]


@pytest.mark.parametrize("name,call,valid", MODULUS_INTAKES, ids=[row[0] for row in MODULUS_INTAKES])
@pytest.mark.parametrize("n", [0, 1, modring.MAX_MODULUS + 1, 2**63])
def test_modulus_outside_the_supported_range(name, call, valid, n):
    # Refused before any reduction mod n: n = 0 would divide by zero, n = 1
    # give the zero ring and n beyond int64 overflow the reduction.
    with pytest.raises(ModulusError):
        call(n)


@pytest.mark.parametrize("element", [5, 1, 0, 12, 13, 2**63])
def test_root_of_unity_must_be_primitive_of_its_order(element):
    # On F_13 the primitive cube roots are 3 and 9: 5^3 = 8, 1 has order 1,
    # 12 order 2, and 0 and 13 or more are not units of F_13.  Built
    # directly, 5 used to reach full relation_check and ffrak_generate reports.
    with pytest.raises(DomainError):
        RootOfUnity(F13, element, 3)


def _string_owners(phrase):
    """(module, innermost function) of every string constant of ``src`` that holds ``phrase``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value:
                inside = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, max(inside, key=lambda f: f.lineno).name if inside else None))
    return found


@pytest.mark.parametrize("phrase,owner", [
    ("modulus must be >=", ("modring.py", "check_modulus")),
    ("not contained in", ("finfield.py", "check_roots")),
    ("does not match the modulus", ("finfield.py", "check_omega")),
])
def test_one_owner_per_hypothesis_message(phrase, owner):
    # Each standing hypothesis (2 <= n <= 2^31 - 1; mu_n in F_q; omega of
    # order the field's n) is refused in one place, with one message.
    assert _string_owners(phrase) == [owner]
    assert sum(path.read_text().count(phrase) for path in SRC.glob("*.py")) == 1


# (name, call of the intake on a value of the wrong shape)
SHAPE_MISMATCHES = [
    ("ModMatrix entries 1-D", lambda: ModMatrix(5, [1, 2])),
    ("Cocycle2 values", lambda: Cocycle2(C2, 2, [[0, 0, 0], [0, 1, 0]])),
    ("FnTable values rows", lambda: FnTable(F5, 2, [[0, 1], [1, 0]])),
    ("FnTable values columns", lambda: FnTable(F5, 2, [[0, 1, 0], [1, 0, 0], [1, 1, 0]])),
    ("FnTable values flat", lambda: FnTable(F5, 2, [0, 1, 1, 0, 1, 1])),
]


@pytest.mark.parametrize("name,call", SHAPE_MISMATCHES, ids=[row[0] for row in SHAPE_MISMATCHES])
def test_shape_mismatch_is_a_dimension_error(name, call):
    # FnTable raised ModulusError for a table of the wrong shape.
    with pytest.raises(DimensionError):
        call()


@pytest.mark.parametrize("k", [0, 1, 3, 2**63])
def test_coeff_vector_length_must_match_the_rank(k):
    # Rank 2 takes 3 coefficients; no k x k array is allocated for another rank.
    with pytest.raises(DimensionError):
        H2Class.from_coeff_vector(k, 4, [1, 2, 3])


# --- the two helpers --------------------------------------------------------


class TestCheckIntegers:
    @pytest.mark.parametrize("value,shape", [([], (0,)), ([[]], (1, 0)), (np.zeros((0, 3)), (0, 3))])
    def test_empty_input(self, value, shape):
        out = check_integers(value, "entries", 5)
        assert out.dtype == np.int64 and out.shape == shape

    def test_int64_array_is_not_copied(self):
        arr = np.arange(6).reshape(2, 3)
        assert check_integers(arr, "entries") is arr and check_integers(arr, "entries", 6) is arr

    def test_object_array_within_int64(self):
        arr = np.array([2**63 - 1, -(2**63), 0], dtype=object)
        out = check_integers(arr, "entries")
        assert out.dtype == np.int64 and out.tolist() == [2**63 - 1, -(2**63), 0]

    @pytest.mark.parametrize("value,message", [
        (np.array([2**64], dtype=object), "entries must be integers of at most 64 bits, got dtype object"),
        (np.array([1, None], dtype=object), "entries must be integers of at most 64 bits, got dtype object"),
        (np.array([1, True], dtype=object), "entries must be integers of at most 64 bits, got dtype object"),
        ([1.0, 2.0], "entries must be integers of at most 64 bits, got dtype float64"),
        ("12", "entries must be integers of at most 64 bits, got dtype <U2"),
        (np.array([2**63], dtype=np.uint64), r"entries: 9223372036854775808 outside \[0, 9223372036854775808\)"),
        ([[1, True]], "entries must be integers of at most 64 bits, got a bool entry"),
        (((2, 3), (4, np.True_)), "entries must be integers of at most 64 bits, got a bool entry"),
        ([np.array([True, False]), np.array([1, 2])], "entries must be integers of at most 64 bits, got a bool entry"),
    ])
    def test_refused(self, value, message):
        with pytest.raises(DomainError, match=message):
            check_integers(value, "entries")

    def test_uint64_below_two_to_the_63(self):
        assert check_integers(np.array([2**63 - 1], dtype=np.uint64), "entries").tolist() == [2**63 - 1]

    @pytest.mark.parametrize("value,bad", [
        ([0, 5], 5),
        ([[0, 1], [-1, 2]], -1),
        (np.array([7], dtype=np.uint64), 7),
        (np.array([-128], dtype=np.int8), -128),
        (np.array(2**63 + 1, dtype=np.uint64), 2**63 + 1),
    ])
    def test_range(self, value, bad):
        with pytest.raises(DomainError, match=rf"entries: {bad} outside \[0, 5\)"):
            check_integers(value, "entries", 5)

    def test_ragged(self):
        with pytest.raises(DimensionError, match="entries must form a rectangular array"):
            check_integers([[1, 2], [3]], "entries")

    def test_scalars_pass_as_zero_dimensional(self):
        out = check_integers(np.uint16(3), "entries", 5)
        assert out.shape == () and out.dtype == np.int64 and int(out) == 3


class TestCheckInteger:
    @pytest.mark.parametrize("value", [3, np.int8(3), np.uint64(3), np.int64(3)])
    def test_integers_pass_as_python_ints(self, value):
        out = check_integer(value, "index", 4)
        assert type(out) is int and out == 3

    @pytest.mark.parametrize("value", [4, -1, 2**70])
    def test_range(self, value):
        with pytest.raises(DomainError, match=rf"index: {value} outside \[0, 4\)"):
            check_integer(value, "index", 4)

    def test_unbounded(self):
        assert check_integer(-(2**70), "index") == -(2**70)

    @pytest.mark.parametrize("value", [2.0, True, np.True_, None, "3", np.array([3])])
    def test_refused(self, value):
        with pytest.raises(DomainError, match="index must be an integer"):
            check_integer(value, "index", 4)


# --- one owner of dtype rules ----------------------------------------------


def dtype_rule_reads(source: str) -> list[str]:
    """The source text of every ``<x>.dtype.kind`` read and of every
    comparison with the name ``object`` (an object-dtype test)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "kind" and getattr(node.value, "attr", None) == "dtype":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Name) and x.id == "object" for x in [node.left, *node.comparators]
        ):
            found.append(ast.unparse(node))
    return found


def test_finds_dtype_rule_reads():
    source = "def f(a):\n    if a.dtype.kind in 'iu' and a.dtype == object:\n        return a.kind, dtype.kind\n"
    assert dtype_rule_reads(source) == ["a.dtype == object", "a.dtype.kind"]


def test_dtype_rules_only_in_errors():
    owners = {path.name for path in sorted(SRC.glob("*.py")) if dtype_rule_reads(path.read_text())}
    assert owners == {"errors.py"}
