import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    # four code lines: the def, the two lines of the call, and the return;
    # the docstrings, the comment, the blank line and the comment inside
    # the call do not count
    (tmp_path / "sample.py").write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    # a comment\n"
        "    y = max(x,\n"
        "            # inside the call\n"
        "            1)\n"
        "    return y\n"
    )
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "code_lines.py"),
         str(tmp_path)], capture_output=True, text=True, check=True).stdout
    assert out == "4\n"
