"""The documented surface of the package: its star import and the README
library example."""

import re
from pathlib import Path

import rankmoments

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_all():
    namespace = {}
    exec("from rankmoments import *", namespace)
    for name in rankmoments.__all__:
        assert namespace[name] is getattr(rankmoments, name)
    assert len(set(rankmoments.__all__)) == len(rankmoments.__all__)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["var_rs_exact"](0.0, 10) == 1 / 9
