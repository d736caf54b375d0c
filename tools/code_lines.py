"""Print the code lines of each module of a directory and their total.

A code line is a source line that carries a token other than a comment,
a blank line or a docstring (a string that stands alone as a statement);
the count is read with ``tokenize``.  Run from the repository root; the
directory is src/hamgraphs unless another is given:

    python tools/code_lines.py
    python tools/code_lines.py tests
"""

import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    lines = set()
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    start = True   # the next token opens a logical line
    for i, tok in enumerate(tokens):
        if tok.type in SKIP:
            start = start or tok.type in (tokenize.NEWLINE, tokenize.INDENT,
                                          tokenize.DEDENT)
            continue
        alone = (start and tok.type == tokenize.STRING
                 and tokens[i + 1].type in (tokenize.NEWLINE,
                                            tokenize.ENDMARKER))
        if not alone:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        start = False
    return len(lines)


def main(root="src/hamgraphs"):
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(root, name))
            total += n
            print("%-22s %5d" % (name, n))
    print("%-22s %5d" % ("total", total))


if __name__ == "__main__":
    main(*sys.argv[1:])
