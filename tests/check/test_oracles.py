"""The reference oracles stay out of the simulator.

:mod:`repro.check.oracles` holds the slow per-line / per-slot / per-bit
recomputations the production kernels are checked against. Only the
auditor, the microbench and tests may call them; the simulator layers
have exactly one kernel implementation and no switch selecting another.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
SIMULATOR_LAYERS = ("heap", "osim", "collectors")


def imported_modules(path: Path):
    """Absolute dotted names of every module ``path`` imports."""
    package = ".".join(path.relative_to(PACKAGE.parent).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_one_kernel_implementation_and_no_oracle_imports():
    switch = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if any(word in path.read_text() for word in ("REPRO_KERNELS", "use_reference_kernels"))
    ]
    assert switch == []
    importers = [
        str(path.relative_to(PACKAGE))
        for layer in SIMULATOR_LAYERS
        for path in sorted((PACKAGE / layer).rglob("*.py"))
        if any(
            name == "repro.check.oracles" or name.startswith("repro.check.oracles.")
            for name in imported_modules(path)
        )
    ]
    assert importers == []
