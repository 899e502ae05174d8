"""Self-test of the output checks: each check must accept the program's
output and reject it once any single value has been perturbed.

For every experiment of every workload, the CLI runs once; then, for every
CSV file and every data column, one value is changed and the check must
report a problem.  The value changed is the one of largest magnitude in its
column (so the change matters at any tolerance); numbers move by 1e-4 of
themselves, integers by one, booleans flip, text gains a character.  A
column the check can only bound (``checks.BOUND_ONLY``) is moved past its
bound instead.

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads


def _perturb(data: bytes, column: int) -> bytes | None:
    """The CSV with one value of ``column`` changed, or None if no rows."""
    lines = data.decode("utf-8").split("\n")
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = [i for i in range(head + 1, len(lines)) if lines[i]]
    if not rows:
        return None
    name = lines[head].split(",")[column]
    cells = [lines[i].split(",")[column] for i in rows]

    def magnitude(text):
        try:
            return abs(float(text))
        except ValueError:
            return 0.0

    pick = max(range(len(rows)), key=lambda j: (magnitude(cells[j]), -j))
    old = cells[pick]
    if old in ("true", "false"):
        new = "false" if old == "true" else "true"
    elif name in checks.BOUND_ONLY:
        new = repr(checks.BOUND_ONLY[name])
    else:
        try:
            new = str(int(old) + 1)
        except ValueError:
            try:
                value = float(old)
                new = repr(value * (1 + 1e-4) if value else 1e-4)
            except ValueError:
                new = old + "x"
    parts = lines[rows[pick]].split(",")
    parts[column] = new
    lines[rows[pick]] = ",".join(parts)
    return "\n".join(lines).encode("utf-8")


def main(root: Path, out: Path, env: dict) -> int:
    shutil.rmtree(out, ignore_errors=True)
    missed, cases = [], 0
    for workload in workloads.WORKLOADS:
        for exp in workloads.load(workload):
            out_dir = out / exp.name
            out_dir.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "nmhl"] + exp.argv(out_dir), cwd=root,
                env=env, capture_output=True, timeout=120)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            problems = checks.check(exp, files)
            status = f"exit {proc.returncode}"
            if problems:
                print(f"{exp.name}: {status}, check rejects the unperturbed "
                      f"output: {problems}")
                missed.append(exp.name)
                continue
            caught = 0
            for fname, data in files.items():
                header = checks.Table(fname, data).header
                for column, col_name in enumerate(header):
                    bad = _perturb(data, column)
                    if bad is None:
                        continue
                    cases += 1
                    if checks.check(exp, dict(files, **{fname: bad})):
                        caught += 1
                    else:
                        missed.append(f"{exp.name}: {fname}:{col_name}")
                        print(f"{exp.name}: NOT caught: {fname} column {col_name}")
            print(f"{exp.name}: {status}, output accepted; {caught} perturbed "
                  f"outputs rejected")
    shutil.rmtree(out, ignore_errors=True)
    print(f"selftest: {cases} perturbations, {len(missed)} not caught")
    return 1 if missed else 0
