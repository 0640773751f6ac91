"""The documented surface of the package: its star import, the README
library example, and the rule that every export has a user."""

import re
from pathlib import Path

import pytest

import rankmoments

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# Exports that a caller receives from a call but need not name, each with
# a real call that returns one.
RETURN_TYPES = {
    "OmegaValues": lambda: rankmoments.omegas(0.3),
    "TrialReport": lambda: rankmoments.run_experiment(
        rankmoments.ExperimentConfig(model="binormal", rho_grid=(0.3,),
                                     n_list=(10,), trials=1, seed=1)),
}


def readme_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_star_import_resolves_all():
    namespace = {}
    exec("from rankmoments import *", namespace)
    for name in rankmoments.__all__:
        assert namespace[name] is getattr(rankmoments, name)
    assert len(set(rankmoments.__all__)) == len(rankmoments.__all__)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(readme_example(), str(README), "exec"), namespace)
    assert namespace["var_rs_exact"](0.0, 10) == 1 / 9


def test_every_export_has_a_user():
    # the CLI, the scripts, the acceptance gate and the README example
    users = [(ROOT / "src" / "rankmoments" / "cli.py").read_text(),
             (ROOT / "tests" / "test_acceptance.py").read_text(),
             *(p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))),
             readme_example()]
    unused = [name for name in rankmoments.__all__
              if name not in RETURN_TYPES
              and not any(re.search(rf"\b{name}\b", text) for text in users)]
    assert unused == []


@pytest.mark.parametrize("name", sorted(RETURN_TYPES))
def test_exported_return_type(name):
    assert name in rankmoments.__all__
    assert isinstance(RETURN_TYPES[name](), getattr(rankmoments, name))
