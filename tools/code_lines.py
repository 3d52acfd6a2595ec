"""Count the code lines of each module of src/picardfuchs, and compare two trees.

A code line holds a Python token other than a comment or a docstring: a
line of only a comment, of only (part of) a docstring, or blank does not
count, and a line that a multi-line token spans counts once.  A docstring
is the string that opens a module, class or function body.  ``wc -l``
counts docstrings and comments too, so it moves when only documentation
changes.

    python3 tools/code_lines.py [TREE] [--compare BASE_TREE]

TREE defaults to the tree this script sits in.  Without ``--compare`` it
prints the code lines per module and in total, as a Markdown table; with
``--compare`` it prints both trees' counts and the change from BASE_TREE to
TREE per module and in total.  A module present in one tree only counts 0
in the other.  Standard library only.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "picardfuchs"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers of every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold a token other than a comment or a docstring."""
    skipped = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def count_tree(tree):
    """{module name: code lines} of the package in one source tree."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((Path(tree) / PACKAGE).glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=Path(__file__).resolve().parent.parent,
                        help="source tree to count (default: the tree of this script)")
    parser.add_argument("--compare", metavar="BASE_TREE", help="print the change from BASE_TREE")
    args = parser.parse_args(argv)
    counts = count_tree(args.tree)
    if args.compare is None:
        print("| module | code lines |\n|---|---|")
        for name, n in counts.items():
            print(f"| {name} | {n} |")
        print(f"| total | {sum(counts.values())} |")
        return 0
    base = count_tree(args.compare)
    print("| module | base | tree | change |\n|---|---|---|---|")
    for name in sorted(base.keys() | counts.keys()):
        before, after = base.get(name, 0), counts.get(name, 0)
        print(f"| {name} | {before} | {after} | {after - before:+d} |")
    before, after = sum(base.values()), sum(counts.values())
    print(f"| total | {before} | {after} | {after - before:+d} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
