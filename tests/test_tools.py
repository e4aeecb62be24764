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


def test_peak_rss_reports_a_cell_and_gates_its_bound():
    # a tiny cell: its values, wall seconds and peak RSS, exit 0 with no
    # bound, and non-zero when the peak is above a 1 MB bound
    tool = os.path.join(ROOT, "tools", "peak_rss.py")
    cell = ["hilbert", "--family", "subpermanents", "-n", "3", "-k", "2",
            "--t", "2..3", "--cache-dir", "none"]
    run = subprocess.run([sys.executable, tool, *cell], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert '"oracle": 9' in lines[0] and '"oracle": 77' in lines[1]
    assert lines[2].startswith("hilbert: ") and "peak RSS" in lines[2]
    bounded = subprocess.run([sys.executable, tool, *cell, "--bound", "1"],
                             capture_output=True, text=True)
    assert bounded.returncode != 0
    assert "above 1 MB" in bounded.stderr
