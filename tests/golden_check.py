#!/usr/bin/env python3
"""Byte-for-byte CLI output goldens for mixyc and mixcheck.

Every case runs one tool invocation and compares its stdout, its stderr
and its exit code with the files recorded under tests/golden/cli/
(<case>.stdout, <case>.stderr, <case>.exit). The goldens pin the
user-visible surface of both executors: the MIXY case studies in every
output format (text, json, sarif) and with --explain, the mixcheck
program with a reference, a conditional and a planted type error, a
--precise-deref program whose dereference the solver must clear under
the path condition, and the mini-C non-lvalue assignment target.

    golden_check.py --mixyc BIN --mixcheck BIN [--only CASE ...]
    golden_check.py --mixyc BIN --mixcheck BIN --record

--record rewrites the golden files from the given binaries instead of
comparing against them. Exit status: 0 when every selected case
matches, 1 otherwise (each mismatch is reported).
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "cli")

# Input files written into the scratch working directory of every case.
INPUTS = {
    "prog.mix": "let r = ref 1 in\n"
                "if b then !r + y else (if y < 0 then 0 - y else y + true)\n",
    "nonlvalue.c": "int bad(int a) {\n"
                   "  a + 1 = 2;\n"
                   "  return a;\n"
                   "}\n",
    # p := 1 leaves an ill-typed write at p; reading q then asks the
    # solver whether q may alias p under the path condition. The inner
    # then-path is infeasible (Unsat, excused), the else-path is not (Sat,
    # rejected); p := true overwrites the bad write before block exit.
    "deref.mix": "{s if 0 < y then\n"
                 "     (if y < 0 then (p := 1; let v = !q in (p := true; v))\n"
                 "      else (p := 1; let v = !q in (p := true; v)))\n"
                 "   else true s}\n",
}

MIXCHECK_VARS = ["--var", "b:bool", "--var", "y:int"]
DEREF_VARS = ["--var", "y:int", "--var", "p:bool ref", "--var", "q:bool ref"]


def cases():
    """(name, tool, args) for every golden case, in a stable order."""
    out = []
    for corpus in ("case1", "case2", "case3", "case4", "vsftpd"):
        for fmt in ("text", "json", "sarif"):
            out.append((f"mixyc-{corpus}-{fmt}", "mixyc",
                        [f"@{corpus}", f"--format={fmt}"]))
        out.append((f"mixyc-{corpus}-explain", "mixyc",
                    [f"@{corpus}", "--explain"]))
    for fmt in ("text", "json", "sarif"):
        out.append((f"mixcheck-prog-{fmt}", "mixcheck",
                    MIXCHECK_VARS + [f"--format={fmt}", "prog.mix"]))
    out.append(("mixcheck-prog-explain", "mixcheck",
                MIXCHECK_VARS + ["--explain", "prog.mix"]))
    out.append(("mixcheck-deref-precise-text", "mixcheck",
                DEREF_VARS + ["--precise-deref", "deref.mix"]))
    out.append(("mixcheck-deref-precise-explain", "mixcheck",
                DEREF_VARS + ["--precise-deref", "--explain", "deref.mix"]))
    out.append(("mixyc-nonlvalue-symbolic", "mixyc",
                ["--start=symbolic", "--entry=bad", "nonlvalue.c"]))
    return out


def run_case(tool_bin, args, workdir):
    proc = subprocess.run([tool_bin] + args, cwd=workdir,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=120)
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit": f"{proc.returncode}\n".encode()}


def golden_path(name, stream):
    return os.path.join(GOLDEN_DIR, f"{name}.{stream}")


def describe_mismatch(name, stream, want, got):
    lines = [f"{name}: {stream} differs from its golden"]
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        "golden", "actual", lineterm="", n=1)
    lines.extend(list(diff)[:40])
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mixyc", required=True)
    ap.add_argument("--mixcheck", required=True)
    ap.add_argument("--only", action="append", default=[],
                    help="run only the named case (repeatable)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the golden files instead of comparing")
    opts = ap.parse_args()
    bins = {"mixyc": os.path.abspath(opts.mixyc),
            "mixcheck": os.path.abspath(opts.mixcheck)}

    selected = [c for c in cases() if not opts.only or c[0] in opts.only]
    unknown = set(opts.only) - {c[0] for c in cases()}
    if unknown:
        print(f"unknown case(s): {', '.join(sorted(unknown))}")
        return 1

    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for fname, text in INPUTS.items():
            with open(os.path.join(workdir, fname), "w") as f:
                f.write(text)
        if opts.record:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
        for name, tool, args in selected:
            got = run_case(bins[tool], args, workdir)
            for stream, data in got.items():
                path = golden_path(name, stream)
                if opts.record:
                    with open(path, "wb") as f:
                        f.write(data)
                    continue
                if not os.path.exists(path):
                    failures.append(f"{name}: missing golden {path}")
                    continue
                with open(path, "rb") as f:
                    want = f.read()
                if want != data:
                    failures.append(
                        describe_mismatch(name, stream, want, data))

    for msg in failures:
        print(msg)
    verb = "recorded" if opts.record else "checked"
    print(f"{len(selected)} case(s) {verb}, {len(failures)} mismatch(es)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
