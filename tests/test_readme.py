"""The public API: README's Python sketch runs as written, and every name
``qipsim`` exports exists."""

import re
from pathlib import Path

import pytest

import qipsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


@pytest.mark.parametrize("name", qipsim.__all__)
def test_exported_name_exists(name):
    # a name left in __all__ after its definition goes breaks `import *`
    assert hasattr(qipsim, name)
