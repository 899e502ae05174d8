#!/usr/bin/env python3
"""nmhl benchmark: cold and warm experiment rates, checked outputs, and a
traced per-layer run.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 32 --trace 0

Run it from the root of a source checkout; it puts ``src`` on PYTHONPATH
for every process it starts, and writes only under ``.perfbench/``.  The
load is a closed loop with one client: one experiment runs at a time.

``--trace 0`` measures, for the workload's experiment list:
  setup_s         median wall time of a fresh interpreter that imports nmhl
                  and parses the workload's configs (PROBES probes spread
                  over the cold phase)
  cold_exp_per_s  experiments per second, each a fresh
                  ``python -m nmhl <kind> --config ...`` process (whole
                  passes, at least MIN_COLD_PASSES of them)
  warm_exp_per_s  experiments per second through ``nmhl.cli.main(argv)`` in
                  one long-lived process, after one untimed warm-up pass
                  (at least MIN_WARM_PASSES timed passes)
  peak_rss_mb     largest resident set of any experiment process
Both rates take each experiment's median time over the run's passes.

``--trace 1`` runs the same experiments in a warm process with spans around
the public nmhl functions, and an untraced warm process beside it, and
reports the per-layer metrics listed in BENCHMARK.json.

Every run does whole passes through the experiment list; the seed sets the
order within each pass.  Cold experiments and warm passes interleave over
the whole run (see ``measured_run``).  After each experiment, outside the
timed window, its CSVs are checked against independent references
(checks.py).  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

Other modes: ``--selftest`` shows that each check rejects an output with one
perturbed value; ``--steadiness`` repeats the benchmark over seeds and prints
each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

PROBES = 5            # setup probes per run; their median is setup_s
WARM_PER_COLD = 0.1   # warm pass time per second of cold experiment time
MIN_COLD_PASSES = 3   # cold samples of every experiment per run
MIN_WARM_PASSES = 4   # timed warm passes per MIN_COLD_PASSES cold passes
STEADINESS_RUNS = 10  # seeds per workload in --steadiness
IMPORTTIME_PROBES = 3
DEADLINE_S = 170.0    # every process is killed past this point of the run

PROBE_CODE = """\
import sys
import nmhl
from nmhl.config import parse_config
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
"""


class BenchError(Exception):
    pass


def _require_checkout():
    for rel in ("src/nmhl/__init__.py", "tests/oracles.py"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"{ROOT / rel} is missing: run from a source "
                             "checkout of nmhl")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NMHL_THREADS", None)   # one client, one thread
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


class Spawner:
    """Starts one process at a time and reaps it with wait4."""

    def __init__(self, logs: Path, deadline: float):
        self.env = _child_env()
        self.logs = logs
        self.deadline = deadline
        self.count = 0

    def run(self, argv):
        """(wall seconds, exit code, max RSS in KiB)."""
        self.count += 1
        log = self.logs / f"{self.count:04d}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.5, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"run deadline passed during {argv[:4]} "
                             f"(log {log})")
        return seconds, proc.returncode, usage.ru_maxrss


class Verifier:
    """Checks each distinct output of an experiment once, and notes when an
    experiment's output bytes differ between its runs."""

    def __init__(self):
        import checks
        self._check = checks.check
        self.verdicts = {}      # (experiment name, output key) -> problems
        self.keys = {}          # experiment name -> set of output keys

    def verify(self, exp, rc: int, digests: dict, load) -> list:
        """Problems in the output of one run of ``exp``.  A run that did not
        end with 0 (pass rules hold) or 1 (a pass rule failed) has failed
        and removed its output; there is nothing to check."""
        if rc not in (0, 1):
            return []
        key = tuple(sorted(digests.items()))
        self.keys.setdefault(exp.name, set()).add(key)
        if (exp.name, key) not in self.verdicts:
            files = {name: load(name, digest) for name, digest in digests.items()}
            self.verdicts[(exp.name, key)] = self._check(exp, files)
        return self.verdicts[(exp.name, key)]

    def unstable(self) -> list:
        return [name for name, keys in sorted(self.keys.items()) if len(keys) > 1]


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = {}
        self.wrong = False

    def add(self, name: str, rc: int, problems: list):
        self.attempted += 1
        if problems:
            self.wrong = True
            self.notes.setdefault(f"{name}: wrong output", problems)
        if rc != 0 or problems:
            self.failed += 1
            if rc != 0:
                self.notes.setdefault(f"{name}: exit {rc}", [])


# ---------------------------------------------------------------------------
# the measured run


def _setup_probe(spawner: Spawner, experiments) -> float:
    argv = [sys.executable, "-c", PROBE_CODE] + [str(e.config) for e in experiments]
    seconds, rc, _ = spawner.run(argv)
    if rc != 0:
        raise BenchError(f"setup probe exited {rc} (log {spawner.logs})")
    return seconds


class Worker:
    """A warm process (worker.py) that runs one whole pass per request."""

    def __init__(self, spawner: Spawner, workload: str, seed: int, out: Path,
                 experiments, trace: bool = False):
        self.out = out
        self.spans_path = out / "spans.json" if trace else None
        self.by_name = {e.name: e for e in experiments}
        self.passes = []
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
        if trace:
            argv += ["--spans", str(self.spans_path)]
        spawner.count += 1
        self.log_path = spawner.logs / f"{spawner.count:04d}.worker.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=spawner.env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._log)
        self._timer = threading.Timer(max(0.5, spawner.deadline - time.monotonic()),
                                      self.proc.kill)
        self._timer.start()
        try:
            nmhl_file = self._answer()["nmhl"]
            if not Path(nmhl_file).resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"worker imported nmhl from {nmhl_file}")
        except BaseException:
            self.kill()
            raise

    def _answer(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"warm worker stopped (log {self.log_path})")
        return json.loads(line)

    def run_pass(self) -> dict:
        """Run the next pass; its ops are [name, rc, seconds, digests]."""
        self.proc.stdin.write(f"pass {len(self.passes)}\n")
        self.proc.stdin.flush()
        result = self._answer()
        self.passes.append(result)
        return result

    def close(self) -> int:
        """End the process; returns its max RSS in KiB."""
        try:
            self.proc.stdin.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            self._timer.cancel()
            self._log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"warm worker exited {self.proc.returncode} "
                             f"(log {self.log_path})")
        return usage.ru_maxrss

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._timer.cancel()
        self._log.close()

    def spans(self) -> list:
        return json.loads(self.spans_path.read_text(encoding="utf-8"))

    def verify(self, verifier: Verifier, tally: Tally, first: int):
        """Check every pass's outputs; count the ops of passes >= first."""
        store = self.out / "store"
        for p in self.passes:
            for name, rc, _, digests in p["ops"]:
                problems = verifier.verify(
                    self.by_name[name], rc, digests,
                    lambda _n, d: (store / d).read_bytes())
                if p["index"] >= first:
                    tally.add(name, rc, problems)


def _rate(ops) -> float:
    """Experiments per second of a pass in which each experiment takes its
    median time over the run's passes.  Per-experiment medians keep a burst
    of machine noise in one call from moving the rate; the mix is whole
    passes, so every experiment weighs the same."""
    times = {}
    for name, seconds in ops:
        times.setdefault(name, []).append(seconds)
    return len(times) / sum(statistics.median(t) for t in times.values())


def _pass_seconds(result: dict) -> float:
    return sum(op[2] for op in result["ops"])


def measured_run(workload: str, seed: int, seconds: float, run_dir: Path,
                 spawner: Spawner) -> tuple:
    """Cold experiments and warm passes interleaved over the whole run, so
    both rates sample the same stretch of machine time: after each cold
    experiment, warm passes run until the warm time reaches WARM_PER_COLD of
    the cold time and the warm pass count keeps pace with the cold
    experiments, MIN_WARM_PASSES of them per MIN_COLD_PASSES cold passes.
    The run ends after a whole cold pass, once every experiment has
    MIN_COLD_PASSES cold samples and the measured time (cold plus warm)
    would pass ``seconds`` with one more pass."""
    experiments = workloads.load(workload)
    verifier, tally = Verifier(), Tally()
    worker = Worker(spawner, workload, seed, run_dir / "warm", experiments)
    try:
        worker.run_pass()           # untimed warm-up: caches fill, lazy set-up ends
        probes, cold_ops, warm_ops, peak_kib = [], [], [], 0
        cold_s = warm_s = 0.0
        passes = 0
        while True:
            for exp in workloads.pass_order(experiments, seed, "cold", passes):
                while (len(probes) < PROBES - 1 and
                       cold_s + warm_s >= len(probes) * seconds / (PROBES - 1)):
                    probes.append(_setup_probe(spawner, experiments))
                out_dir = run_dir / "cold" / exp.name.split("/")[1]
                shutil.rmtree(out_dir, ignore_errors=True)
                out_dir.mkdir(parents=True)
                argv = [sys.executable, "-m", "nmhl"] + exp.argv(out_dir)
                secs, rc, maxrss = spawner.run(argv)
                cold_s += secs
                cold_ops.append((exp.name, secs))
                peak_kib = max(peak_kib, maxrss)
                problems = verifier.verify(exp, rc, _digests(out_dir),
                                           lambda n, _d: (out_dir / n).read_bytes())
                tally.add(exp.name, rc, problems)
                paced = (MIN_WARM_PASSES * len(cold_ops)
                         / (MIN_COLD_PASSES * len(experiments)))
                while (warm_s < WARM_PER_COLD * cold_s
                       or len(worker.passes) - 1 < paced):
                    result = worker.run_pass()
                    warm_s += _pass_seconds(result)
                    warm_ops += [(op[0], op[2]) for op in result["ops"]]
            passes += 1
            if (passes >= MIN_COLD_PASSES
                    and (cold_s + warm_s) * (passes + 1) / passes > seconds):
                break
        while len(probes) < PROBES:
            probes.append(_setup_probe(spawner, experiments))
        peak_kib = max(peak_kib, worker.close())
    except BaseException:
        worker.kill()
        raise
    worker.verify(verifier, tally, first=1)

    metrics = {
        "setup_s": {"value": statistics.median(probes), "unit": "s"},
        "cold_exp_per_s": {"value": _rate(cold_ops), "unit": "1/s"},
        "warm_exp_per_s": {"value": _rate(warm_ops), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }
    info = {"cold_passes": passes, "warm_passes": len(worker.passes) - 1,
            "setup_probes": probes}
    return metrics, verifier, tally, info


# ---------------------------------------------------------------------------
# the traced run

LAYERS = (
    "spectral.build_symbol", "spectral.auto_cutoff", "spectral.levy_symbol",
    "semigroup.heat_kernel", "semigroup.kernel_values", "semigroup.log_abs_kernel",
    "malliavin.ibp_check", "malliavin.aux_moment",
    "ldp.legendre", "ldp.lagrangian_table", "ldp.rate_function",
    "varadhan.varadhan_curve", "varadhan.tilted_bound_check",
    "varadhan.exit_bound_check",
)


def _importtime(spawner: Spawner) -> dict:
    """startup.* from one cold ``python -X importtime -c 'import nmhl'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nmhl"],
                          cwd=ROOT, env=spawner.env, capture_output=True, text=True,
                          timeout=max(1.0, spawner.deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"import nmhl exited {proc.returncode}")
    total_us, scipy_us, modules = None, 0, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        modules += 1
        name = name.strip()
        if name == "nmhl":
            total_us = int(cum_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    if total_us is None:
        raise BenchError("no importtime line for nmhl")
    return {"import_s": total_us * 1e-6, "scipy_import_s": scipy_us * 1e-6,
            "modules": modules}


def layer_metrics(spans: list, passes: list) -> dict:
    """Per-pass calls and self time of each traced layer over passes 1..;
    the self time of aux_moment in pass 0, the first of a fresh process."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def pass_of(start):
        for p in passes:
            if p["start"] <= start <= p["end"]:
                return p["index"]
        return -1

    calls, self_s, extra = {}, {}, {}
    first_aux = 0.0
    for i, (name, start, end, _, ext) in enumerate(spans):
        index = pass_of(start)
        own = end - start - child[i]
        if index == 0 and name == "malliavin.aux_moment":
            first_aux += own
        if index < 1:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if ext is not None:
            extra[name] = extra.get(name, 0) + ext
    n = len(passes) - 1
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) / n, "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
    out["malliavin.aux_moment.first_pass_s"] = (first_aux, "s")
    out["ldp.descent_iterations"] = (extra.get("ldp.rate_function", 0) / n, "count")
    out["config.parse_s"] = (self_s.get("config.parse", 0.0) / n, "s")
    out["runner.run.calls"] = (calls.get("runner.run", 0) / n, "count")
    out["runner.self_s"] = (self_s.get("runner.run", 0.0) / n, "s")
    out["runner.csv_bytes"] = (extra.get("runner.run", 0) / n, "bytes")
    return out


def traced_run(workload: str, seed: int, seconds: float, run_dir: Path,
               spawner: Spawner) -> tuple:
    """A traced and an untraced warm process, passes alternating between
    them, so the difference of their pass times is the tracing overhead."""
    experiments = workloads.load(workload)
    verifier, tally = Verifier(), Tally()

    startup = [_importtime(spawner) for _ in range(IMPORTTIME_PROBES)]
    plain = Worker(spawner, workload, seed, run_dir / "plain", experiments)
    try:
        traced = Worker(spawner, workload, seed, run_dir / "traced",
                        experiments, trace=True)
    except BaseException:
        plain.kill()
        raise
    try:
        plain.run_pass()
        traced.run_pass()
        later = {"plain": 0.0, "traced": 0.0}
        while (len(plain.passes) - 1 < MIN_WARM_PASSES
               or sum(later.values()) < seconds):
            for key, worker in (("plain", plain), ("traced", traced)):
                later[key] += _pass_seconds(worker.run_pass())
        plain.close()
        traced.close()
    except BaseException:
        plain.kill()
        traced.kill()
        raise
    plain.verify(verifier, tally, first=0)
    traced.verify(verifier, tally, first=0)

    n_later = len(plain.passes) - 1
    rows = {f"startup.{key}": (statistics.median(s[key] for s in startup),
                               "count" if key == "modules" else "s")
            for key in ("import_s", "scipy_import_s", "modules")}
    spans = traced.spans()
    rows.update(layer_metrics(spans, traced.passes))
    rows["trace.overhead_s"] = ((later["traced"] - later["plain"]) / n_later, "s")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in rows.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "metrics": metrics, "spans": spans,
         "passes": [{k: p[k] for k in ("index", "start", "end")}
                    for p in traced.passes]}), encoding="utf-8")
    info = {"later_passes": n_later,
            "plain_pass_s": later["plain"] / n_later,
            "traced_pass_s": later["traced"] / n_later}
    return metrics, verifier, tally, info


# ---------------------------------------------------------------------------
# modes


def benchmark(args) -> int:
    _require_checkout()
    start = time.monotonic()
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "logs").mkdir(parents=True)
    try:
        spawner = Spawner(run_dir / "logs", start + DEADLINE_S)
        # untimed: a first run in a fresh checkout compiles the bytecode
        spawner.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")])
        run = traced_run if args.trace else measured_run
        metrics, verifier, tally, info = run(args.workload, args.seed,
                                             float(args.seconds), run_dir, spawner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    unstable = verifier.unstable()
    for name in unstable:
        print(f"output bytes of {name} differ between runs", file=sys.stderr)
    for note, problems in sorted(tally.notes.items()):
        print(f"failed: {note}", file=sys.stderr)
        for p in problems[:5]:
            print(f"    {p}", file=sys.stderr)
    print(f"{args.workload}: {json.dumps(info)} wall {time.monotonic() - start:.1f}s",
          file=sys.stderr)
    print(json.dumps({"correct": not tally.wrong and not unstable,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def selftest(args) -> int:
    _require_checkout()
    import selftest as st
    return st.main(ROOT, OUT / "selftest", _child_env())


def steadiness(args) -> int:
    """Run every workload, untraced, on STEADINESS_RUNS seeds from --seed on;
    print each metric's median and quartiles."""
    _require_checkout()
    names = workloads.WORKLOADS
    values = {w: {} for w in names}
    shares = {w: set() for w in names}
    walls = {w: [] for w in names}
    env = dict(os.environ)
    for i in range(STEADINESS_RUNS):
        seed = args.seed + i
        for w in names:     # interleaved, so drift reaches every workload alike
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=200)
            walls[w].append(time.monotonic() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise BenchError(f"{w} seed {seed} exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[w].add((res["failed"], res["attempted"], res["correct"]))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"# {w} seed {seed} wall {walls[w][-1]:.1f}s: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
                flush=True)
    summary = {}
    for w in names:
        print(f"\n{w}: (failed, attempted, correct) per run: {sorted(shares[w])}; "
              f"wall per run {min(walls[w]):.1f}-{max(walls[w]):.1f}s")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            summary[f"{w}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals}
            print(f"  {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"steadiness-{int(time.time())}.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"\nwrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="nmhl benchmark (see the module docstring)")
    parser.add_argument("--workload", help="survey, paths or fields")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the experiments in each pass (default 1; "
                        "first seed for --steadiness)")
    parser.add_argument("--seconds", type=float, default=32,
                        help="measured time per run (default 32)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that every check rejects a perturbed output")
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run every workload on {STEADINESS_RUNS} seeds; "
                        "print median and quartiles")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest(args)
        if args.steadiness:
            return steadiness(args)
        if not args.workload:
            parser.error("--workload is required")
        return benchmark(args)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
