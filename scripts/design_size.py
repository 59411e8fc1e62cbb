"""How big the package is: lines per module and settable values.

    python3 scripts/design_size.py [PACKAGE_DIR]

For each module of PACKAGE_DIR (default: src/fbsdegames) it prints its line
count, then the total, then the number of settable values, counted on the
syntax tree:

* the defaulted parameters of every `def`, positional and keyword-only;
* every field of a `@dataclass` class written with `=`.

The second count includes fields declared `field(...)` with neither
`default` nor `default_factory` (required fields kept out of `repr`); the
output gives how many, so both readings of the count are at hand.  The
total is the settable-value count that ROADMAP.md and CHANGES.md quote.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fbsdegames"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _without_default(value: ast.expr) -> bool:
    """`field(...)` with neither `default` nor `default_factory`."""
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and not {k.arg for k in value.keywords} & {"default", "default_factory"})


def settable_values(source: str) -> tuple[int, int, int]:
    """(defaulted def parameters, dataclass fields with '=', of those the
    field() calls without a default) in one module's source."""
    parameters = fields = required = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parameters += len(node.args.defaults)
            parameters += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            assigned = [s.value for s in node.body
                        if isinstance(s, ast.AnnAssign) and s.value is not None]
            fields += len(assigned)
            required += sum(map(_without_default, assigned))
    return parameters, fields, required


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    package = Path(args[0]) if args else PACKAGE
    lines = 0
    counts = [0, 0, 0]
    print(f"{'module':<20}{'lines':>7}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        n = len(source.splitlines())
        lines += n
        counts = [a + b for a, b in zip(counts, settable_values(source))]
        print(f"{path.name:<20}{n:>7}")
    print(f"{'total':<20}{lines:>7}")
    parameters, fields, required = counts
    print(f"{'settable values':<20}{parameters + fields:>7}  ({parameters} defaulted def "
          f"parameters, {fields} dataclass fields with '=', {required} of them field() "
          "without a default)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
