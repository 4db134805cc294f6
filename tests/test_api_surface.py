"""The package's public surface is what the package itself uses.

A public top-level name that only the tests reach, or a parameter with a
default that only the tests pass, is API kept alive for its own tests;
these checks keep both from growing back. So is a name a module imports
from the package and never reads: a re-export that nothing imports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cointoss"

# Public names, and their defaulted parameters, that only the tests may
# reach: none today. A name listed here must still be unused by src/.
ALLOWED: set[str] = set()

# The console entry point, whose argv the tests pass in.
ENTRY_POINT_PARAMETERS = {"cli.main.argv"}

MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
}


def defined_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def used_names(statement: ast.stmt) -> set[str]:
    """Names the statement reads, as a bare name or as an attribute."""
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def surface() -> tuple[dict[str, str], set[str]]:
    """Public top-level names by module, and every name read elsewhere in src."""
    public, used = {}, set()
    for module, tree in MODULES.items():
        for statement in tree.body:
            defined = defined_names(statement)
            public.update((name, module) for name in defined if not name.startswith("_"))
            # A definition's own body does not count as a use of it.
            used |= used_names(statement) - defined
    return public, used


PUBLIC, USED = surface()


def defaulted_parameters(function: ast.FunctionDef) -> dict[str, int | None]:
    """Each parameter with a default, and its position (None if keyword-only)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = {a.arg: i for i, a in enumerate(positional) if i >= first}
    found.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return found


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether `call` may pass the parameter; a * or ** argument may pass any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def unpassed_parameters() -> list[str]:
    """``module.function.parameter`` of each public function's defaulted
    parameter that no call in src passes, matching calls by name."""
    calls = {}
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "attr", None) or getattr(callee, "id", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in MODULES.items():
        for function in tree.body:
            if not isinstance(function, ast.FunctionDef) or function.name.startswith("_"):
                continue
            for name, position in defaulted_parameters(function).items():
                if not any(passes(c, name, position) for c in calls.get(function.name, [])):
                    unpassed.append(f"{module}.{function.name}.{name}")
    return sorted(unpassed)


def unused_package_imports() -> list[str]:
    """``module.name`` of each name a module imports from the package and
    never reads, counting imports inside functions too."""
    unused = []
    for module, tree in MODULES.items():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{module}.{name}" for name in sorted(imported - read)]
    return unused


def test_every_name_imported_from_the_package_is_used():
    assert unused_package_imports() == [], "never read where imported: delete the imports"


def test_every_public_name_is_used_by_the_package():
    unused = sorted(f"{PUBLIC[name]}.{name}" for name in set(PUBLIC) - USED - ALLOWED)
    assert unused == [], "used by nothing in src/: delete them or make them private"


def test_allowlist_names_only_unused_public_names():
    assert ALLOWED <= set(PUBLIC) - USED


def test_every_defaulted_parameter_is_passed_by_the_package():
    unpassed = [
        p
        for p in unpassed_parameters()
        if p not in ENTRY_POINT_PARAMETERS and p.split(".")[1] not in ALLOWED
    ]
    assert unpassed == [], "passed by nothing in src/: delete them or drop the default"


def test_entry_point_parameters_are_unpassed_defaults():
    assert ENTRY_POINT_PARAMETERS <= set(unpassed_parameters())
