"""The README's python examples run as written: in order, sharing one
namespace, as a reader pasting them into one session would, and the
differential privacy example also on its own."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def _run(*blocks):
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    return printed.getvalue()


def test_the_readme_has_its_three_python_examples():
    assert len(BLOCKS) == 3
    assert "empirical_dp_check" in BLOCKS[-1]


def test_the_readme_python_examples_run_in_order_in_one_namespace():
    assert "linkage success" in _run(*BLOCKS)


@pytest.mark.parametrize("block", [b for b in BLOCKS if "empirical_dp_check" in b], ids=["dp"])
def test_the_readme_dp_example_runs_on_its_own(block):
    assert _run(block).splitlines()[-1] == "1.0"
