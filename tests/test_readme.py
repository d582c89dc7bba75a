"""The README's library quick tour runs as written.

The tour is the README's one python code block, taken out of the file
before doctest runs it: on the whole README, doctest reads the fence that
closes the block as part of the last example's expected output."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(tour, {}, "quick tour", str(README), 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0 and results.failed == 0
