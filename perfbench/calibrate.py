"""Fixed reference work that measures how fast this machine is right now.

    python3 calibrate.py cpu       work like bibstack's own: a brace-aware word
                                   splitter, a small postfix stack machine,
                                   string building, a sort, and newline
                                   counting over a large string
    python3 calibrate.py startup   interpreter start plus the standard-library
                                   modules that bibstack.cli imports, and no work

The benchmark runs both as child processes between its timed operations.
They import nothing from bibstack, so no change to the program can move
their times; only the machine can.  Their median wall times in a run are
the speeds the run's timings are normalized to (see run.py): `cpu` for
the compute-bound `pipeline` and `bibtex`, `startup` for `lint` and the
bare import, whose time is mostly interpreter start.  Changing this file
changes the unit of every time the benchmark reports.
"""

import sys

TEXT = ("Jean de la {Fontaine and Sons} and {\\'E}mile van der Berg, Jr., Hans "
        "and others and M{\\\"u}ller, Anna and Chen Li and ") * 200


def words(s):
    out, buf, depth = [], [], 0
    for ch in s:
        if ch == "{":
            depth += 1
            buf.append(ch)
        elif ch == "}":
            depth = max(0, depth - 1)
            buf.append(ch)
        elif ch.isspace() and depth == 0:
            if buf:
                out.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        out.append("".join(buf))
    return out


def machine(program, n):
    stack, env = [], {"i": 0, "acc": ""}
    for _ in range(n):
        for op in program:
            if op == "+":
                b, a = stack.pop(), stack.pop()
                stack.append(a + b)
            elif op == "*":
                b, a = stack.pop(), stack.pop()
                stack.append(a + b)
            elif op == ":=":
                name, value = stack.pop(), stack.pop()
                env[name] = value
            elif op.startswith("'"):
                stack.append(op[1:])
            elif op.startswith("#"):
                stack.append(int(op[1:]))
            elif op.startswith('"'):
                stack.append(op[1:])
            else:
                stack.append(env[op])
    return env


def count_lines(text, step):
    # C-level scanning of a string much larger than the first cache levels
    return sum(text.count("\n", 0, pos) for pos in range(0, len(text), step))


def main():
    keys = []
    for _ in range(4):
        ws = words(TEXT)
        keys.extend(" ".join(ws[i:i + 3]) for i in range(0, len(ws), 3))
    keys.sort()
    program = ["i", "#1", "+", "'i", ":=", "acc", '"x', "*", "'acc", ":="]
    env = machine(program, 16000)
    lines = count_lines(("word " * 14 + "\n") * 4500, 600)
    if env["i"] != 16000 or not keys or not lines:
        raise SystemExit("calibrate.py: wrong result")


if __name__ == "__main__":
    if sys.argv[1:] == ["cpu"]:
        main()
    elif sys.argv[1:] == ["startup"]:
        import argparse, dataclasses, pathlib, re, tempfile  # noqa: E401,F401
    else:
        raise SystemExit("usage: calibrate.py cpu|startup")
