"""The README's library example runs as written and gives the values its
comments state."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_the_values_its_comments_state():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)

    params = names["plan"].params
    assert (params.J, params.Delta, params.Gamma) == (math.pi, 3.0, math.pi)
    report = names["report"]
    assert report.trace_overlap == pytest.approx(1.0, abs=1e-12)
    assert report.global_phase == pytest.approx(math.pi / 4, abs=1e-12)
    exact, estimate = names["exact"], names["estimate"]
    assert repr(exact).startswith("0.83608838")
    assert abs(estimate.mean - exact) <= 5 * estimate.std_error
