"""The rules of the code-line counter (`tests/code_lines.py`)."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

# Each line that counts ends in `# +`, a comment the counter skips.
SNIPPET = '''"""The module docstring,
on two lines."""

import os  # +

# A comment line does not count, nor does a blank one.


class C:  # +
    """A class docstring."""

    def f(self, a,  # +
          b):  # +
        """A docstring
        on two lines."""
        x = (a +  # +
             b)  # +
        y = a \\
            + b  # +
        s = """a string  # +
that spans lines"""  # +
        "a string that is no docstring"  # +
        return x, y, s  # +
'''


def test_code_lines_counts_lines_that_hold_code():
    # `y = a \\` holds code but no comment, so it is added by hand.
    assert code_lines(SNIPPET) == SNIPPET.count("# +") + 1
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_code_lines_prints_a_table_per_module(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text(SNIPPET)
    script = Path(__file__).with_name("code_lines.py")
    out = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == ["2", str(code_lines(SNIPPET)),
                                                 str(2 + code_lines(SNIPPET))]
    assert out[-1].endswith("(total)")
