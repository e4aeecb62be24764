"""Print the number of code lines in the Python files under a directory
(default `src/permres`): lines holding a token that is not a comment, and
not part of a docstring or any other string standing alone as a statement.
Blank lines, comments and docstrings do not count.

    python tools/code_lines.py [directory]
"""

import os
import sys
import tokenize

# tokens that never make a line a code line
_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path):
    """The numbers of the code lines of one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    statement = []  # the tokens of the logical line read so far
    for tok in tokens:
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE and statement:
                # a string alone as a statement is a docstring
                if not (len(statement) == 1
                        and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return lines


def count(directory):
    return sum(len(code_lines(os.path.join(root, name)))
               for root, _, files in os.walk(directory)
               for name in files if name.endswith(".py"))


if __name__ == "__main__":
    print(count(sys.argv[1] if len(sys.argv) > 1 else "src/permres"))
