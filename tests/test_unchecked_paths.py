"""The constructions that skip a check stay where their argument holds.

``object.__new__`` builds a TableGroup or ModMatrix without running its
``__post_init__``.  In the library that happens in exactly two private
helpers: ``groups._generated_group``, which takes the generating set from
its caller and then runs every group check on it, and
``modring.ModMatrix._wrap``, which skips the reduction mod n of an array
that is already reduced, so it is called only from ``howell_form`` and
``nullspace`` on the fresh arrays ``_howell`` and ``_left_kernel`` return.

The cohomology machinery skips Light's test on the cocycles it pulls back
along the layer-1 coordinates, reading their values off the coordinates
with ``_inflated_values``.  Those are the values of a cocycle only on
coordinates checked to be a homomorphism, and the coboundary check on the
N |T| pairs is exact only for a cocycle.  The coordinates exist only as
the read-only property ``CentralSeriesData.layer1_coords``, which runs that
check, so ``kernel_of_inflation``, which builds its system from inflated
values, and every call of ``_inflated_values`` whose values do not go
straight into ``Cocycle2`` and its Light's test, must lie in a function
that reads ``layer1_coords``.

Two table-level helpers of ``groups`` skip checks the same way.
``_decompose_table`` recurses on raw quotient tables, which are groups only
when the input table is abelian, so outside its own recursion it is called
only from ``abelian_decomposition``, which compares the table with its
transpose.  ``_coset_layer`` numbers the cosets of G^(i+1) in G^(i), which
form a group only when G^(i+1) is normal, so it is called only from
``central_series``, which calls ``is_normal`` on each term.

``modring`` has one path for kernels and solutions: ``solve_linear`` reads
its solutions off ``_left_kernel``, as ``nullspace`` does, and the
reduction against Howell rows, ``_reduce_against``, serves ``membership``
alone.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abelcentral"

ALLOWED = {
    ("groups.py", "_generated_group", "TableGroup"),
    ("modring.py", "_wrap", "cls"),
}


def _innermost(tree):
    """Map from each node to the name of the innermost function around it (None at module level)."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            owner[child] = name
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name)

    visit(tree, None)
    return owner


def new_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, class) of every ``X.__new__(...)`` call; X is
    the first argument when the call is ``object.__new__(X)``."""
    tree = ast.parse(source)
    owner = _innermost(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
            target = node.func.value
            if isinstance(target, ast.Name) and target.id == "object" and node.args:
                target = node.args[0]
            found.append((owner[node], ast.unparse(target)))
    return found


def _is_call_of(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def calls_of(source: str, name: str) -> list[str]:
    """The enclosing function of every call of ``name`` (a bare name or an attribute)."""
    tree = ast.parse(source)
    owner = _innermost(tree)
    return [owner[node] for node in ast.walk(tree) if _is_call_of(node, name)]


def reads_of(source: str, name: str) -> list[str]:
    """The enclosing function of every read of the attribute ``name``."""
    tree = ast.parse(source)
    owner = _innermost(tree)
    return [
        owner[node]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)
    ]


def unwrapped_calls_of(source: str, name: str, wrapper: str) -> list[str]:
    """The enclosing function of every call of ``name`` that is not itself
    an argument, positional or keyword, of a call of ``wrapper``."""
    tree = ast.parse(source)
    owner = _innermost(tree)
    wrapped = {
        id(arg)
        for node in ast.walk(tree)
        if _is_call_of(node, wrapper)
        for arg in [*node.args, *(kw.value for kw in node.keywords)]
    }
    return [owner[node] for node in ast.walk(tree) if _is_call_of(node, name) and id(node) not in wrapped]


def test_finds_new_calls():
    source = (
        "def f():\n    g = object.__new__(TableGroup)\n"
        "class A:\n    def m(self):\n        return Cocycle2.__new__(Cocycle2)\n"
        "x = object.__new__(Other)\n"
    )
    assert set(new_calls(source)) == {("f", "TableGroup"), ("m", "Cocycle2"), (None, "Other")}


def test_finds_calls_of_a_helper():
    source = "def f():\n    h()\n    mod.h()\ndef g():\n    def inner():\n        h()\n"
    assert sorted(calls_of(source, "h")) == ["f", "f", "inner"]


def test_finds_attribute_reads():
    source = "def f(cs):\n    return cs.a\ndef g(cs):\n    cs.a = 1\n    return cs.b.a\n"
    assert sorted(reads_of(source, "a")) == ["f", "g"]


def test_finds_calls_outside_a_wrapper():
    source = (
        "def f():\n    W(h())\n    W(x, key=h())\n    W(g(h()))\n    h()\n"
        "def g():\n    mod.W(1, mod.h())\n    y = h()\n    W(y)\n"
    )
    assert sorted(unwrapped_calls_of(source, "h", "W")) == ["f", "f", "g"]


def test_unchecked_constructions_only_in_the_named_helpers():
    found = {
        (path.name, func, cls)
        for path in sorted(SRC.glob("*.py"))
        for func, cls in new_calls(path.read_text())
    }
    assert found == ALLOWED


def test_inflated_cocycles_only_after_the_homomorphism_check():
    # Values that go straight into Cocycle2 pass its Light's test; every
    # other call needs the homomorphism check.
    source = (SRC / "cohomology.py").read_text()
    unchecked = set(unwrapped_calls_of(source, "_inflated_values", "Cocycle2"))
    assert unchecked == {"verify_thm23_and_omegaR"}
    assert unchecked <= set(reads_of(source, "layer1_coords"))
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cohomology.py":
            assert calls_of(path.read_text(), "_inflated_values") == []


def test_unreduced_matrices_only_from_howell_forms():
    assert set(calls_of((SRC / "modring.py").read_text(), "_wrap")) == {"howell_form", "nullspace"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "modring.py":
            assert calls_of(path.read_text(), "_wrap") == []


def test_kernel_only_from_checked_coordinates():
    source = (SRC / "cohomology.py").read_text()
    assert set(calls_of(source, "kernel_of_inflation")) == {"verify_thm23_and_omegaR"}
    assert "kernel_of_inflation" in reads_of(source, "layer1_coords")


def test_raw_table_helpers_only_behind_their_checks():
    source = (SRC / "groups.py").read_text()
    assert set(calls_of(source, "_decompose_table")) == {"abelian_decomposition", "_decompose_table"}
    assert "abelian_decomposition" in calls_of(source, "array_equal")
    assert set(calls_of(source, "_coset_layer")) == {"central_series"}
    assert "central_series" in calls_of(source, "is_normal")
    for path in sorted(SRC.glob("*.py")):
        if path.name != "groups.py":
            for helper in ("_decompose_table", "_coset_layer"):
                assert calls_of(path.read_text(), helper) == []


def test_one_solving_path():
    source = (SRC / "modring.py").read_text()
    assert "solve_linear" in calls_of(source, "_left_kernel")
    assert set(calls_of(source, "_reduce_against")) == {"membership"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "modring.py":
            assert calls_of(path.read_text(), "_reduce_against") == []
