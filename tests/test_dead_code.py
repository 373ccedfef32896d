"""Every public name in the package is reached from the package itself,
and only the lattice module reads basis indices as base-3 digits or
counts along the sites of an occupation table.

A public module-level function or class needs a `Name` or `Attribute`
reference somewhere in `src/asep2` outside its own definition; a public
method or property needs an `Attribute` reference.  Code that only tests
reach is deleted, or its tests move onto the code the package runs.

A basis index is decoded by `lattice.decode`, the one base-3 codec, so
no other module takes a base-3 digit with `% 3`.  A left count is
`lattice.left_counts`, the one cumulative count along a table's sites,
so no other module calls `cumsum` with an axis.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "asep2"

# "name" or "Class.name" -> why nothing in src references it
ALLOWLIST: dict[str, str] = {
    "Measure.probability": (
        "`bench/workloads.py` `kernel_prepare`; leaves at the next benchmark PR, item 14"
    ),
    "enumerate_sector": (
        "`bench/workloads.py` `kernel_prepare`; leaves at the next benchmark PR, item 14"
    ),
}


def _words(node, kinds) -> list[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and ast.Name in kinds:
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute) and ast.Attribute in kinds:
            out.append(sub.attr)
    return out


def unreferenced() -> list[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    both = (ast.Name, ast.Attribute)
    names = [w for tree in trees for w in _words(tree, both)]
    attrs = [w for tree in trees for w in _words(tree, (ast.Attribute,))]
    defs = (ast.FunctionDef, ast.ClassDef)
    out = []
    for tree in trees:
        for top in tree.body:
            if not isinstance(top, defs) or top.name.startswith("_"):
                continue
            if names.count(top.name) == _words(top, both).count(top.name):
                out.append(top.name)
            if not isinstance(top, ast.ClassDef):
                continue
            for member in top.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = _words(member, (ast.Attribute,)).count(member.name)
                if attrs.count(member.name) == own:
                    out.append(f"{top.name}.{member.name}")
    return sorted(out)


def test_no_public_name_is_unreferenced():
    assert [name for name in unreferenced() if name not in ALLOWLIST] == []


# "module.name" -> why that top-level definition takes base-3 digits itself
DIGIT_ALLOWLIST: dict[str, str] = {}


def _mod_three(node) -> bool:
    """`x % 3` or `x %= 3`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        operand = node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
        operand = node.value
    else:
        return False
    return isinstance(operand, ast.Constant) and operand.value == 3


def _outside_lattice(found) -> list[str]:
    """Top-level definitions outside lattice.py with a node `found` holds for."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if any(found(node) for node in ast.walk(top)):
                out.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return sorted(out)


def digit_arithmetic() -> list[str]:
    """Top-level definitions outside lattice.py that take a base-3 digit."""
    return _outside_lattice(_mod_three)


def test_basis_digits_only_in_lattice():
    assert digit_arithmetic() == sorted(DIGIT_ALLOWLIST)


def _cumsum_along_axis(node) -> bool:
    """`np.cumsum(x, axis)` or `x.cumsum(axis)`, the axis by position or keyword."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    # the method `x.cumsum` takes the axis first, the function the array
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "np"
    given = len(node.args) > (0 if method else 1) or any(k.arg == "axis" for k in node.keywords)
    return name == "cumsum" and given


def test_left_counts_only_in_lattice():
    # a 1-D cumsum (a cdf, an offset table) is not a count along sites
    assert _outside_lattice(_cumsum_along_axis) == []
