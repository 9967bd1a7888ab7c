import re
from pathlib import Path

import streamsketch

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_cover_the_readme_import():
    for name in streamsketch.__all__:
        assert getattr(streamsketch, name) is not None
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    statement = re.search(r"^from streamsketch import \(.*?\)\n", block.group(1), re.S | re.M)
    namespace = {}
    exec(statement.group(0), namespace)
    imported = {name for name in namespace if name != "__builtins__"}
    assert imported and imported <= set(streamsketch.__all__)
