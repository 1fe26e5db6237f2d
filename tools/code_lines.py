"""Print the code lines of each module of src/orliczfrac, and their total.

A code line holds a token that is neither a comment nor part of a
docstring (a string that is a statement by itself). Run:

    python tools/code_lines.py
"""

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orliczfrac"
NOISE = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source):
    toks = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
            if t.type not in NOISE]
    lines = set()
    for i, tok in enumerate(toks):
        docstring = (tok.type == tokenize.STRING
                     and (i == 0 or toks[i - 1].type in LAYOUT)
                     and toks[i + 1].type == tokenize.NEWLINE)
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {p.name: code_lines(p.read_bytes())
              for p in sorted(PACKAGE.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:20} {n:5}")
    print(f"{'total':20} {sum(counts.values()):5}")
