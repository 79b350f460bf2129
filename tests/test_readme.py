"""The README's library quickstart runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_its_literal_comments():
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quickstart", "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    literals = 0
    for call, shown in zip(calls, printed):
        comment = call.partition("#")[2].strip()
        if comment[:1].isdigit():  # a printed value; a comment such as "(1 + sin(...)) / 2" is a formula
            assert shown == comment
            literals += 1
    assert literals >= 1
