"""README's library examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _expected(comment: str) -> list[str]:
    """The tokens a ``# ...`` comment promises: quotes stripped, and
    ``twice`` repeating the token before it."""
    tokens = []
    for word in comment.split():
        tokens.append(tokens[-1] if word == "twice" else word.strip('"'))
    return tokens


def _matches(printed: str, expected: str) -> bool:
    """A token ending in ``...`` is a prefix of the printed one; any other
    must equal it."""
    if expected.endswith("..."):
        return printed.startswith(expected[:-3])
    return printed == expected


def test_readme_python_blocks_print_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        comments = [line.split("#", 1)[1] for line in block.splitlines() if line.startswith("print(")]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(comments)
        for line, comment in zip(printed, comments):
            got, want = line.split(), _expected(comment)
            assert len(got) == len(want) and all(map(_matches, got, want)), (line, comment)
