"""Lines and code lines of each Python file under a directory.

A file's lines are its newlines, as `wc -l` counts them.  Its code lines
are the non-blank lines that hold a token outside comments and docstrings
(a string that is the first statement of a module, class or function).

    python tools/srcsize.py [--against REV] [--dir DIR]

It prints both counts of each .py file under DIR (relative to the
repository root, default src/ugbench) at REV (default HEAD) and in the
working tree, and the net change of each; a file missing on one side
counts 0 there.  It only reports: the exit status is 0 unless git fails.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text):
    """(lines, code lines) of the Python source text."""
    skip = {i for i, line in enumerate(text.splitlines(), start=1)
            if not line.strip()}
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            skip.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - skip)


def tree_sizes(directory):
    """{path: (lines, code lines)} of the .py files under ROOT/directory."""
    sizes = {}
    for parent, _, names in os.walk(os.path.join(ROOT, directory)):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(parent, name)
                with open(path, encoding="utf-8") as fh:
                    sizes[os.path.relpath(path, ROOT)] = count(fh.read())
    return sizes


def rev_sizes(rev, directory):
    """{path: (lines, code lines)} of the .py files under directory at rev."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                              check=True, text=True).stdout
    return {path: count(git("show", f"{rev}:{path}"))
            for path in git("ls-tree", "-r", "--name-only", rev, "--",
                            directory).splitlines() if path.endswith(".py")}


def report(before, after):
    """One line per file of before or after, then one of the net change."""
    lines, net = [], [0, 0]
    for path in sorted(before.keys() | after.keys()):
        (n0, c0), (n1, c1) = before.get(path, (0, 0)), after.get(path, (0, 0))
        lines.append(f"{path}: lines {n0} -> {n1}, code lines {c0} -> {c1}")
        net[0] += n1 - n0
        net[1] += c1 - c0
    return lines + [f"net: lines {net[0]:+d}, code lines {net[1]:+d}"]


def main():
    parser = argparse.ArgumentParser(prog="srcsize", description=__doc__.split("\n")[0])
    parser.add_argument("--dir", default="src/ugbench")
    parser.add_argument("--against", metavar="REV", default="HEAD")
    args = parser.parse_args()
    print("\n".join(report(rev_sizes(args.against, args.dir),
                           tree_sizes(args.dir))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
