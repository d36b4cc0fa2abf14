"""Every module-level import in the package is read by its module, so a
deletion cannot leave an unused import behind."""

import ast
from pathlib import Path

import oov_forge

# (module, name) imported only for code outside the package: the benchmark
# wraps training.sample_episode in the training module
READ_OUTSIDE = {("training", "sample_episode")}


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(Path(oov_forge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [(path.stem, name, imported[name]) for name in sorted(imported.keys() - read)
                   if (path.stem, name) not in READ_OUTSIDE]
    assert not unread, f"imported and never read (module, name, line): {unread}"
