#!/usr/bin/env python3
"""Operator mutation study of one module, written as one JSON report.

    python3 scripts/mutation.py src/qfdc/experiment.py --out MUTATION.json
    python3 scripts/mutation.py src/qfdc/model.py --text-mutants scripts/mutants/model.json

Each mutant swaps one operator of the module: ``+``/``-``, ``*``/``/``,
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not`` or
``in``/``not in`` (binary operations and comparisons found with ``ast``),
or one boolean constant, ``True``/``False``; only the operator's or the
constant's characters change, so line numbers hold.
``--text-mutants`` adds hand-made mutants for code with no operator to
swap: a JSON list of ``{"mutant": label, "module": path, "from": text,
"to": text}``, each replacing one source text that occurs exactly once. The
tree is copied once to a temporary directory, and each mutant is written
into the copy and tested there, one after another, with
``python -m pytest -x -q``; the working tree is never touched, and a
module outside it is refused. Tests that already fail or error on the
unmutated copy are deselected, and the study stops unless the copy then
passes, so a mutant counts as killed when some other test fails or the run
exceeds ``TIMEOUT_S``. Every run passes ``--hypothesis-seed=HYPOTHESIS_SEED``,
so the generated examples, and with them the score, repeat from run to run.
The report holds the score and every survivor. A SIGTERM ends the study
as an exception does: the running pytest is killed and the temporary tree
removed. Uses the standard library only and gates nothing.
"""

import argparse
import ast
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
         "==": "!=", "!=": "==", "is": "is not", "is not": "is", "in": "not in", "not in": "in",
         "True": "False", "False": "True"}
#: The NAME tokens that spell the identity and membership operators.
WORDS = ("is", "in", "not")
BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120.0  # per mutant; a run that exceeds it counts as killed
HYPOTHESIS_SEED = 0


def sites(source: str) -> list[tuple[int, int, str]]:
    """(line, column, operator) of every swappable operator and boolean
    constant, in source order.

    The operator is the one OP token in ``SWAPS`` between its two operands,
    or the one or two NAME tokens of ``is``, ``is not``, ``in`` or
    ``not in`` there, joined by a space. A constant is ``True`` or
    ``False``, as ``ast`` finds it."""
    lines = source.splitlines(keepends=True)

    def char_pos(line: int, byte_col: int) -> tuple[int, int]:  # ast columns are UTF-8 bytes
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if (tok.type == tokenize.OP and tok.string in SWAPS)
           or (tok.type == tokenize.NAME and tok.string in WORDS)]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is bool:
            found.add((*char_pos(node.lineno, node.col_offset), str(node.value)))
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, BINOPS):
            pairs = [(node.left, node.right)]
        elif isinstance(node, ast.Compare):
            pairs = list(zip([node.left, *node.comparators], node.comparators))
        else:
            continue
        for left, right in pairs:
            lo = char_pos(left.end_lineno, left.end_col_offset)
            hi = char_pos(right.lineno, right.col_offset)
            between = [tok for tok in ops if lo <= tok.start and tok.end <= hi]
            words = [tok.string for tok in between if tok.type == tokenize.NAME]
            if words:
                found.add((*between[0].start, " ".join(words)))
            else:
                found.update((*tok.start, tok.string) for tok in between)
    return sorted(found)


def mutate(source: str, line: int, col: int, op: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(op)] == op, (line, col, op)
    lines[line - 1] = text[:col] + SWAPS[op] + text[col + len(op):]
    return "".join(lines)


def run_pytest(copy: Path, extra: list[str], timeout: float | None) -> subprocess.CompletedProcess:
    # no bytecode: a same-size mutant written within the second of the last
    # one would pass the .pyc staleness check (mtime and size) and not run
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # an empty example database: examples saved by one mutant's failing run
    # would otherwise be replayed against the next mutant
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           f"--hypothesis-seed={HYPOTHESIS_SEED}", *extra]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                          timeout=timeout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module to mutate, relative to the repo root")
    parser.add_argument("--out", default="MUTATION.json", help="report path")
    parser.add_argument("--text-mutants", type=Path, help="JSON list of hand-made mutants")
    args = parser.parse_args()
    # SystemExit unwinds through subprocess.run, which kills its child, and
    # through the TemporaryDirectory, which removes the tree copy
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def source_of(name: str) -> tuple[Path, str]:
        path = (ROOT / name).resolve()
        if not (path.is_relative_to(ROOT) and path.is_file()):
            parser.error(f"{name} is not a file in {ROOT}")
        return path.relative_to(ROOT), path.read_text()

    module, source = source_of(args.module)
    # (what a survivor records, the module it mutates, the mutated source)
    todo = [({"line": line, "col": col, "from": op, "to": SWAPS[op],
              "code": source.splitlines()[line - 1].strip()}, module, mutate(source, line, col, op))
            for line, col, op in sites(source)]
    for m in json.loads(args.text_mutants.read_text()) if args.text_mutants else []:
        path, text = source_of(m["module"])
        if text.count(m["from"]) != 1:
            parser.error(f"mutant {m['mutant']!r}: its 'from' text occurs "
                         f"{text.count(m['from'])} times in {path}, not once")
        todo.append((m, path, text.replace(m["from"], m["to"])))
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        base = run_pytest(copy, ["-rfE"], None)
        failing = re.findall(r"^(?:FAILED|ERROR) (\S+)", base.stdout, re.M)
        deselect = [arg for test in failing for arg in ("--deselect", test)]
        check = run_pytest(copy, deselect, None)
        if check.returncode != 0:
            print(check.stdout[-4000:], f"the unmutated copy fails with {failing} deselected",
                  sep="\n", file=sys.stderr)
            return 1
        print(f"{len(todo)} mutants; deselected {failing}", file=sys.stderr)
        survivors, timeouts, start = [], 0, time.perf_counter()
        for k, (record, path, mutated) in enumerate(todo, 1):
            original = (copy / path).read_text()
            (copy / path).write_text(mutated)
            try:
                killed = run_pytest(copy, ["-x", *deselect], TIMEOUT_S).returncode != 0
            except subprocess.TimeoutExpired:
                killed, timeouts = True, timeouts + 1
            (copy / path).write_text(original)
            if not killed:
                survivors.append(record)
            label = record.get("mutant") or (f"{path}:{record['line']}:{record['col']} "
                                             f"{record['from']} -> {record['to']}")
            print(f"[{k}/{len(todo)}] {label}: {'killed' if killed else 'SURVIVED'}",
                  file=sys.stderr)
    report = {
        "module": str(module),
        "text_mutants": str(args.text_mutants) if args.text_mutants else None,
        "mutants": len(todo),
        "killed": len(todo) - len(survivors),
        "timeouts": timeouts,
        "score": (len(todo) - len(survivors)) / len(todo) if todo else None,
        "deselected": failing,
        "hypothesis_seed": HYPOTHESIS_SEED,
        "seconds": round(time.perf_counter() - start, 1),
        "survivors": survivors,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"score {report['score']}: {len(survivors)} survivors of {len(todo)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
