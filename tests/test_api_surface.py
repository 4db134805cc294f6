"""Every public top-level name in the package is used by the package itself.

A name that only the tests reach is API kept alive for its own tests; this
check keeps such names from growing back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cointoss"

# Reference implementations the acceptance tests still compare against,
# until exact certificates of the bounds replace them (ROADMAP item 2).
ALLOWED = {"phase_sweep"}


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
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = defined_names(statement)
            public.update((name, path.stem) for name in defined if not name.startswith("_"))
            # A definition's own body does not count as a use of it.
            used |= used_names(statement) - defined
    return public, used


PUBLIC, USED = surface()


def test_every_public_name_is_used_by_the_package():
    unused = sorted(f"{PUBLIC[name]}.{name}" for name in set(PUBLIC) - USED - ALLOWED)
    assert unused == [], "used by nothing in src/: delete them or make them private"


def test_allowlist_names_only_unused_public_names():
    assert ALLOWED <= set(PUBLIC) - USED
