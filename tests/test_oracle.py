"""The ref-word oracle stays independent of the engine it checks."""

import ast
from pathlib import Path

# The oracle may read the package's data types, and nothing else of it.
DATA_MODULES = {"spanex.model", "spanex.formula", "spanex.vsa"}


def test_oracle_imports_no_engine_module():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            # ``from spanex import compiler`` names a module too
            imported.update(f"{node.module}.{alias.name}" for alias in node.names
                            if node.module == "spanex")
    from_spanex = {name for name in imported
                   if name == "spanex" or name.startswith("spanex.")}
    assert from_spanex and from_spanex <= DATA_MODULES, from_spanex - DATA_MODULES
