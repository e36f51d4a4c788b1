"""Benchmark of ratval's batch front end: `ratval run` and `ratval recheck`.

    python3 bench/run.py --workload eval-tadic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One closed-loop client does one
operation at a time in this process: it runs every generated job
through `ratval.cli.main(["run", path])`, saves the report of a job that
makes a certificate and hands it to `main(["recheck", path])` (RECHECKS
times, each a sample of its own, since a recheck is short), and
checks every answer against the value the generator computed.  The
jobs are made by `gen.py` in a child process from the seed, so this
process holds only ratval's own memory besides the harness.

Workloads (see `gen.py`):
  eval-tadic  t-adic eval jobs over F_2(t), degrees 2, 3 and 4 in turn
  eval-dense  3-adic degree-32 and trivially valued F_{13^4} degree-16
              eval jobs in turn
  certify     piltant p=2 and p=3, degree-bound, extension-step and
              extract jobs; every certificate is rechecked
In the eval workloads the certificate that is rechecked is the one the
`classify` task makes for the job's valuation (made untimed).  Beside
certify, each run also reports a known-defect probe (`gen.defect_probe`)
that is not part of the workload.

Every operation is timed between runs of a fixed stdlib-only
reference kernel (`refkernel.py`): a job between runs of the arithmetic
`kernel()`, so job times are in ref units, and a recheck between runs of
`cli_kernel()`, so recheck times are in cref units.  Each is the
operation's time divided by the median kernel time around it, so the
machine's speed drift cancels; raw milliseconds are printed as
diagnostics.  `setup_s` is the median time to `import ratval.cli` in
children forked from a freshly started interpreter, which read bytecode
from a cache of the benchmark's own, filled by one untimed import.  The
kernel does not slow down with the machine as an import does, so an
import of a fixed stdlib package (REF_IMPORT) is timed after each one
instead, and `setup_s` is given in seconds at the speed where that
import takes REF_IMPORT_SECONDS, so it does not drift either; the raw
median is printed beside it.

With `--trace 1` the same loop runs first, then the first
TRACE_ROUNDS rounds run once more as they are and once with every
public callable of the ratval layers wrapped (`layertrace.py`).  The
per-layer counts and shares come from that traced pass, and
`run.trace_overhead` is its job p50 over the job p50 of the same rounds
untraced.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import gen  # noqa: E402  (this directory is on sys.path when run as a script)
import refkernel  # noqa: E402
import layertrace  # noqa: E402

MIN_SAMPLES = 100       # per timing, so p90 has at least 10 samples beyond it
LOOP_LIMIT_S = 100      # the loop stops here even short of MIN_SAMPLES (run not correct)
OP_CAP_S = 20           # one operation longer than this is a timeout
REF_WINDOW = 4          # kernels on each side of an operation in its ref
RECHECKS = 3            # rechecks of each certificate, each one a sample
SETUP_PAIRS = 40        # forked imports of ratval.cli, each followed by one of REF_IMPORT
REF_IMPORT = "unittest"  # a fixed stdlib import, the yardstick of setup_s
REF_IMPORT_SECONDS = 0.035  # setup_s is in seconds at the speed where REF_IMPORT takes this
IMPORTTIME_CHILDREN = 5
TRACE_ROUNDS = {"eval-tadic": 2, "eval-dense": 6, "certify": 4}
MODULES = ("ratval", "errors", "fields", "groups", "series", "valuations",
           "homogeneous", "certificates", "cli")


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds OP_CAP_S; a
    BaseException so that no handler inside ratval swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def fail(msg: str) -> None:
    sys.stderr.write(f"bench: {msg}\n")
    raise SystemExit(2)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


# ---------------------------------------------------------------------------
# set-up time, in interpreters of their own

# Forks one child per name in turn, each of which imports the name and
# prints the time it took.  A forked child holds what a fresh interpreter
# holds after start-up, and forking spares the start-up, so a run can
# afford many samples.
_IMPORT_FORKS = """
import os, sys, time
sys.path.insert(0, {src!r})
for name in {names!r}:
    pid = os.fork()
    if pid == 0:
        try:
            t = time.perf_counter()
            module = __import__(name)
            t = time.perf_counter() - t
            assert name != "ratval.cli" or module.__file__.startswith({src!r}), module.__file__
            os.write(1, (name + " " + repr(t) + "\\n").encode())
            os._exit(0)
        except BaseException as exc:
            os.write(2, repr(exc).encode())
        os._exit(1)
    if os.waitpid(pid, 0)[1] != 0:
        sys.exit("importing " + name + " failed")
"""


def _child(extra: list[str], code: str) -> subprocess.CompletedProcess:
    # -E ignores PYTHON* variables such as PYTHONDONTWRITEBYTECODE;
    # bytecode goes to a cache of the benchmark's own, so a stale or
    # missing src/ratval/__pycache__ costs nothing here.
    cmd = [sys.executable, "-E", "-s", "-X", f"pycache_prefix={os.path.join(WORK, 'pycache')}",
           *extra, "-c", code]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        fail(f"import child failed: {proc.stderr.strip()[-500:]}")
    return proc


def measure_setup() -> tuple[float, float]:
    """(import time of ratval.cli at reference speed, raw import time),
    medians in s.  Each import of ratval.cli is followed by one of
    REF_IMPORT, and the ratio of their medians is the import time in
    units of REF_IMPORT; both see the same machine, so its speed cancels."""
    shutil.rmtree(os.path.join(WORK, "pycache"), ignore_errors=True)
    _child([], f"import sys; sys.path.insert(0, {SRC!r}); import ratval.cli, {REF_IMPORT}")
    names = ["ratval.cli", REF_IMPORT] * SETUP_PAIRS
    out = _child([], _IMPORT_FORKS.format(src=SRC, names=names)).stdout.split()
    times: dict[str, list[float]] = {"ratval.cli": [], REF_IMPORT: []}
    for name, t in zip(out[::2], out[1::2]):
        times[name].append(float(t))
    if len(times["ratval.cli"]) != SETUP_PAIRS or len(times[REF_IMPORT]) != SETUP_PAIRS:
        fail(f"import children printed {out[:6]}...")
    ratval = statistics.median(times["ratval.cli"])
    return ratval / statistics.median(times[REF_IMPORT]) * REF_IMPORT_SECONDS, ratval


def import_times() -> dict[str, float]:
    """Self import time in ms of each ratval module (median of children)."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_CHILDREN):
        seen = dict.fromkeys(MODULES, 0.0)
        code = f"import sys; sys.path.insert(0, {SRC!r}); import ratval.cli"
        for line in _child(["-X", "importtime"], code).stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[0].isdigit():
                mod = parts[2]
                if mod == "ratval" or mod.startswith("ratval."):
                    if (short := mod.removeprefix("ratval.")) in seen:
                        seen[short] = int(parts[0]) / 1000
        for m, v in seen.items():
            samples[m].append(v)
    return {m: statistics.median(v) for m, v in samples.items()}


# ---------------------------------------------------------------------------
# operations

class Timings:
    """Times of one kind of operation and of the reference kernel timed
    before each, in flat arrays: per operation raw seconds, the index of
    the kernel run before it, and whether it passed.  Nothing else of an
    operation is kept, so the harness's own memory hardly grows with the
    number of operations and `peak_rss_mb` stays ratval's."""

    def __init__(self, kernel):
        self.run_kernel = kernel
        self.kernels = array("d")        # kernel runs, in order
        self.raw = array("d")
        self.kernel = array("I")
        self.ok = array("b")

    def time_kernel(self) -> None:
        t0 = time.perf_counter()
        self.run_kernel()
        self.kernels.append(time.perf_counter() - t0)


class Runner:
    """Runs operations through ratval.cli.main, one at a time.  With a
    `tracer` (layertrace.Tracer) set, each timed operation also records
    (kind, raw seconds, report bytes, first span, end span) in `spans`."""

    def __init__(self, cli, jobs_dir: str):
        self.cli = cli
        self.jobs = jobs_dir
        self.certs = os.path.join(WORK, "certs")
        os.makedirs(self.certs, exist_ok=True)
        # a job is timed against the arithmetic kernel, a recheck, which
        # is mostly command-line work, against the command-line kernel
        self.timings = {"job": Timings(refkernel.kernel),
                        "recheck": Timings(refkernel.cli_kernel)}
        self.attempted = 0
        self.failures: collections.Counter = collections.Counter()  # (name, kind, failure)
        self.tracer: layertrace.Tracer | None = None
        self.spans: list[tuple[str, float, int, int, int]] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, argv: list[str]):
        """(exit code or None, stdout, failure type or None, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        clock = time.perf_counter
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            kind = None if rc == 0 else f"exit-{rc}"
        except OpTimeout:
            rc, kind = None, "timeout"
        except (Exception, SystemExit) as exc:  # any escape is a failed operation
            rc, kind = None, type(exc).__name__
        finally:
            dt = clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        return rc, out.getvalue(), kind, dt

    def time_kernels(self) -> None:
        """The kernel runs after the last operations."""
        for t in self.timings.values():
            t.time_kernel()

    def timed(self, kind: str, entry: dict, argv: list[str], check) -> tuple[str | None, str]:
        """Runs one operation between kernel runs; returns its failure
        (None if it passed) and its report."""
        t = self.timings[kind]
        gc.collect()
        t.time_kernel()
        lo = self.tracer.mark() if self.tracer is not None else 0
        _, out, failure, dt = self.call(argv)
        if failure is None:
            try:
                if not check(json.loads(out)):
                    failure = "wrong-answer"
            except (ValueError, KeyError, TypeError):
                failure = "bad-report"
        t.raw.append(dt)
        t.kernel.append(len(t.kernels) - 1)
        t.ok.append(failure is None)
        self.count(kind, entry, failure)
        if self.tracer is not None:
            self.spans.append((kind, dt, len(out.encode()), lo, self.tracer.mark()))
        return failure, out

    def count(self, kind: str, entry: dict, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[entry["name"], kind, failure] += 1

    def save_cert(self, name: str, report: str) -> str:
        path = os.path.join(self.certs, name + ".json")
        with open(path, "w") as fh:
            fh.write(report)
        return path

    def entry(self, e: dict) -> None:
        """One job, then RECHECKS rechecks of its certificate.  A recheck
        that cannot start counts as attempted and failed."""
        failure, report = self.timed("job", e, ["run", os.path.join(self.jobs, e["job"])],
                                     lambda r: check_answer(r, e["expect"]))
        if "classify" in e:
            _, report, failure, _ = self.call(["run", os.path.join(self.jobs, e["classify"])])
            name, missing = e["name"] + ".classify", "classify-" + str(failure)
        elif e["expect"].get("recheck"):
            name, missing = e["name"], "no-certificate"
        else:
            return
        if failure is not None:
            for _ in range(RECHECKS):
                self.count("recheck", e, missing)
            return
        cert = self.save_cert(name, report)
        for _ in range(RECHECKS):
            self.timed("recheck", e, ["recheck", cert], lambda r: r["ok"] is True)

    def passed(self, kind: str) -> int:
        return sum(self.timings[kind].ok)

    def refs(self, kind: str, only_ok: bool = True) -> list[float]:
        """The times of the operations of `kind` in runs of their kernel
        (ref or cref units): each raw time over the median of the kernel
        runs around it."""
        t = self.timings[kind]
        k = t.kernels
        return [t.raw[i] / statistics.median(k[max(0, j - REF_WINDOW + 1): j + REF_WINDOW + 1])
                for i, j in enumerate(t.kernel) if t.ok[i] or not only_ok]


def check_answer(report: dict, expect: dict) -> bool:
    ok = True
    if "value" in expect:
        ok = report["value"] == expect["value"] and report["oracle_agrees"] is True
    if "bound" in expect:
        ok = ok and report["certificate"]["bound"] == expect["bound"]
    if "degree_lower_bound" in expect:
        ok = ok and report["degree_lower_bound"] == expect["degree_lower_bound"]
    if expect.get("recheck"):
        ok = ok and isinstance(report.get("certificate"), dict)
    return ok


def run_loop(runner: Runner, rounds: list[list[dict]], seconds: float,
             min_rounds: int) -> tuple[int, bool]:
    """Whole rounds, in order and again from the first, until `seconds`
    have passed and every timing has MIN_SAMPLES; returns the rounds run
    and whether every timing got MIN_SAMPLES.  Past LOOP_LIMIT_S it
    stops at once, even inside a round, and the run is not correct."""
    start = time.perf_counter()
    done = 0
    while True:
        for e in rounds[done % len(rounds)]:
            runner.entry(e)
            if time.perf_counter() - start >= LOOP_LIMIT_S:
                runner.time_kernels()
                return done, min(map(runner.passed, runner.timings)) >= MIN_SAMPLES
        done += 1
        if (time.perf_counter() - start >= seconds and done >= min_rounds
                and min(map(runner.passed, runner.timings)) >= MIN_SAMPLES):
            runner.time_kernels()
            return done, True


# ---------------------------------------------------------------------------
# metrics

def end_to_end(runner: Runner, setup: tuple[float, float]) -> tuple[dict, dict]:
    jobs, rechecks = runner.refs("job"), runner.refs("recheck")
    job_t, recheck_t = runner.timings["job"], runner.timings["recheck"]
    ran = len(job_t.raw)
    ok = len(jobs) + len(rechecks)
    metrics = {
        "setup_s": (setup[0], "s", SETUP_PAIRS),
        "job_p50": (statistics.median(jobs), "ref", len(jobs)),
        "job_p90": (p90(jobs), "ref", len(jobs)),
        "jobs_per_kref": (len(jobs) / (sum(runner.refs("job", only_ok=False)) / 1000),
                          "1/kref", ran),
        "recheck_p50": (statistics.median(rechecks), "cref", len(rechecks)),
        "recheck_p90": (p90(rechecks), "cref", len(rechecks)),
        "ok_frac": (ok / runner.attempted, "ratio", runner.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    job_ms = [r * 1000 for r, ok_ in zip(job_t.raw, job_t.ok) if ok_]
    recheck_ms = [r * 1000 for r, ok_ in zip(recheck_t.raw, recheck_t.ok) if ok_]
    raw = {
        "setup_s": setup[1],
        "ref_ms_p50": statistics.median(job_t.kernels) * 1000,
        "cref_ms_p50": statistics.median(recheck_t.kernels) * 1000,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": p90(job_ms),
        "recheck_ms_p50": statistics.median(recheck_ms),
        "recheck_ms_p90": p90(recheck_ms),
        "jobs_per_s": len(jobs) / sum(job_t.raw),
    }
    return metrics, raw


RATFUNC_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
               "__neg__", "__pow__")
# what a span of these callables measures: series term pairs multiplied,
# and the denominator length of a RatFunc result
PROBES = {"series.HahnSeries.__mul__": lambda args, res: len(args[0].terms) * len(args[1].terms)}
PROBES.update({f"valuations.RatFunc.{op}": lambda args, res: len(getattr(res, "den", ()))
               for op in RATFUNC_OPS})


def traced_pass(runner: Runner, rounds: list[list[dict]]):
    """Run `rounds` once untraced, then again with the layers wrapped;
    returns the raw times of the untraced jobs and the tracer, whose
    operations are in `runner.spans`."""
    t = runner.timings["job"]
    first = len(t.raw)
    for r in rounds:
        for e in r:
            runner.entry(e)
    untraced = [raw for raw, ok in zip(t.raw[first:], t.ok[first:]) if ok]
    runner.tracer = tracer = layertrace.Tracer()
    tracer.install(PROBES)
    try:
        for r in rounds:
            for e in r:
                runner.entry(e)
    finally:
        tracer.uninstall()
        runner.tracer = None
    return untraced, tracer


def per_layer(untraced: list[float], tracer: layertrace.Tracer, spans, imports: dict,
              raw: dict) -> dict:
    """Per-layer metrics of the traced pass.  Counts are means per traced
    job.  `<layer>.self_share` is the layer's self time over the traced
    job time; the shares named after callables (taylor_shift, oracle,
    build, validate) count their whole span, children included, over
    the traced job time (validate: over the traced recheck time)."""
    jobs = [span for span in spans if span[0] == "job"]
    rechecks = [span for span in spans if span[0] == "recheck"]
    n = len(jobs)
    names = tracer.names
    counts: dict[str, int] = {}
    self_time: dict[str, float] = {}
    pairs, den_len = 0, 0
    job_time = 0.0
    for _, dt, _, lo, hi in jobs:
        job_time += dt
        for i, st in zip(range(lo, hi), tracer.self_times(lo, hi)):
            name = names[tracer.name[i]]
            counts[name] = counts.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + st
            if i in tracer.measured:
                if layer == "series":
                    pairs += tracer.measured[i]
                else:
                    den_len = max(den_len, tracer.measured[i])

    def count(*names_):
        return sum(counts.get(x, 0) for x in names_) / n

    def count_prefix(prefix):
        return sum(v for k, v in counts.items() if k.startswith(prefix)) / n

    def share(match, ops=jobs):
        total = sum(dt for _, dt, _, _, _ in ops)
        return sum(tracer.outermost_time(lo, hi, match) for *_, lo, hi in ops) / total

    m = {
        "fields.mul_per_job": count("fields.FieldElement.__mul__", "fields.FieldElement.__rmul__"),
        "fields.add_per_job": count("fields.FieldElement.__add__", "fields.FieldElement.__radd__"),
        "fields.inv_per_job": count("fields.FieldElement.inverse"),
        "fields.build_per_job": count("fields.FiniteField.__init__"),
        "valuations.ratfunc_ops_per_job": count(*(f"valuations.RatFunc.{o}" for o in RATFUNC_OPS)),
        "valuations.ratfunc_max_den_len": den_len,
        "valuations.taylor_shift_share": share(lambda s: s == "valuations.taylor_shift"),
        "valuations.oracle_share": share(lambda s: s == "valuations.substitution_value"),
        "groups.elem_ops_per_job": count_prefix("groups.GroupElement."),
        "groups.subgroup_calls_per_job": count_prefix("groups.Subgroup."),
        "series.mul_per_job": count("series.HahnSeries.__mul__"),
        "series.mul_term_pairs_per_job": pairs / n,
        "series.root_calls_per_job": count("series.artin_schreier_root", "series.kummer_root",
                                           "series.HahnSeries.p_th_root"),
        "homogeneous.calls_per_job": count_prefix("homogeneous."),
        "certificates.build_share": share(lambda s: s.startswith("certificates.build_")),
        "certificates.validate_share": share(lambda s: s == "certificates.validate_certificate",
                                             rechecks),
        "cli.report_bytes_per_job": sum(nbytes for _, _, nbytes, _, _ in jobs) / n,
        "run.ref_ms_p50": raw["ref_ms_p50"],
        "run.job_wall_ms_p50": raw["job_ms_p50"],
        "run.job_wall_ms_p90": raw["job_ms_p90"],
        "run.trace_overhead": statistics.median(dt for _, dt, _, _, _ in jobs)
        / statistics.median(untraced),
    }
    for layer in (*layertrace.LAYERS, "cli"):
        m[f"{layer}.self_share"] = self_time.get(layer, 0.0) / job_time
    for mod, ms in imports.items():
        m[f"setup.import_ms.{mod}"] = ms
    return m


def unit_of(name: str) -> str:
    if name.endswith("_share") or name == "run.trace_overhead":
        return "ratio"
    if "_ms" in name:
        return "ms"
    return "B" if name.endswith("_bytes_per_job") else "count"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ratval run/recheck benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ratval", "cli.py")):
        fail(f"no ratval sources under {SRC}; run from the root of a ratval checkout")
    if (refkernel.kernel() != refkernel.EXPECTED
            or refkernel.cli_kernel() != refkernel.EXPECTED_CLI):
        fail("a reference kernel gave a wrong checksum")

    t_setup = time.perf_counter()
    jobs_dir = os.path.join(WORK, "jobs")
    shutil.rmtree(jobs_dir, ignore_errors=True)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload",
                           args.workload, "--seed", str(args.seed), "--out", jobs_dir],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        fail(f"job generation failed: {proc.stderr.strip()[-500:]}")
    with open(os.path.join(jobs_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    rounds: list[list[dict]] = []
    for e in manifest["entries"]:
        if e["round"] == len(rounds):
            rounds.append([])
        rounds[-1].append(e)
    setup = measure_setup()
    imports = import_times() if args.trace else {}

    sys.path.insert(0, SRC)
    import ratval.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"ratval was imported from {cli.__file__}, not from {SRC}")
    runner = Runner(cli, jobs_dir)
    setup_wall = time.perf_counter() - t_setup

    n_trace = TRACE_ROUNDS[args.workload] if args.trace else 1
    done, samples_met = run_loop(runner, rounds, args.seconds, n_trace)
    metrics, raw = end_to_end(runner, setup)
    if args.trace:
        untraced, tracer = traced_pass(runner, rounds[:n_trace])
        tracer.write(os.path.join(WORK, "trace"))
        layer = per_layer(untraced, tracer, runner.spans, imports, raw)
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    failures = runner.failures
    attempted, failed = runner.attempted, sum(failures.values())

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {manifest['digest']}")
    print(f"{done} rounds of {len(rounds[0])} slots ({len(rounds)} distinct rounds), "
          f"{attempted} operations, set-up {setup_wall:.1f} s")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<15} {value:12.4f} {unit:<7} n={n}")
    for name, value in raw.items():
        print(f"  raw {name:<14} {value:10.3f}")
    if args.trace:
        for k, v in out.items():
            print(f"  {k:<36} {v['value']:14.4f} {v['unit']}")
    if not samples_met:
        print(f"NOT CORRECT: the loop stopped at {LOOP_LIMIT_S} s with a timing "
              f"below {MIN_SAMPLES} samples")
    print(f"failed operations: {failed}")
    for (name, kind, failure), k in sorted(failures.items()):
        print(f"  {name} {kind}: {failure} x{k}")
    defects = {}
    for e in manifest["probes"]:
        # a known defect, reported beside the workload (see gen.defect_probe)
        _, report, failure, _ = runner.call(["run", os.path.join(jobs_dir, e["job"])])
        if failure is None and not check_answer(json.loads(report), e["expect"]):
            failure = "wrong-answer"
        defects[e["slot"]] = failure or "passes"
        print(f"known-defect probe {e['slot']}: {defects[e['slot']]}")
    print("diagnostics: " + json.dumps({
        "raw": raw, "n": {k: n for k, (_, _, n) in metrics.items()},
        "units": {k: u for k, (_, u, _) in metrics.items()},
        "failures": [[*key, k] for key, k in sorted(failures.items())], "probes": defects,
        "digest": manifest["digest"], "rounds": done, "min_samples_met": samples_met,
        "setup_wall_s": setup_wall}))
    print(json.dumps({"correct": failed == 0 and samples_met, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
