"""Batch front end: job files in, reports and certificates out.

Verbs: `run <job.json>` executes one task and writes a deterministic
JSON report (exit 0; domain errors exit 1 with a structured error
report; parse/schema errors exit 2; a failed internal self-check exits
3 with a structured error report); `recheck <certificate.json>`
re-validates a certificate from its witnesses; `selftest` runs the
seeded property suites.

`main` builds its argument parser only for an argv other than the two
words `run PATH` and `recheck PATH`, which go straight to their task;
`argparse` is imported with the parser and `tempfile` with an `output`
file, so a one-shot `run` or `recheck` loads neither.

Jobs are read with the typed readers of the schema module, whose
SchemaError names the JSON path of the bad value; each task names the
job fields it requires in _TASKS.  Rationals travel as "num/den" strings
throughout; identical job files produce byte-identical reports (keys are
sorted, nothing volatile is embedded).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

from .certificates import (
    ExtensionStep,
    build_defect_tower,
    build_degree_bound,
    build_extension_tower,
    classification_certificate,
    validate_certificate,
)
from .errors import InternalError, PreconditionError, RatvalError, SchemaError, UndecidedError
from .groups import Subgroup
from .homogeneous import TowerState, extract_homogeneous_sequence, implicit_constant_report
from .schema import integer, list_of, obj, rational, string
from .series import HahnSeries
from .valuations import (
    CenteredValuation,
    PseudoCauchyValuation,
    RationalFunction,
    ValuedField,
    substitution_value,
    valuation_from_json,
)

def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file beside it.  A path that
    cannot be written is a SchemaError, and leaves no temporary file."""
    import tempfile  # only a job that names an `output` writes one

    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".ratval-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL in the path, which repr shows
        raise SchemaError(f"cannot write {path!r}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _task_eval(job: dict, depth: int | None) -> dict:
    valn = valuation_from_json(job["valuation"], ("valuation",))
    if not isinstance(valn, CenteredValuation):
        raise PreconditionError(
            "pseudo Cauchy descriptors are not evaluated directly; values along the "
            "sequence are depth-stamped reports (use task 'classify' with a probe)"
        )
    entry = obj(job["eval"], ("eval",), required=("num",))
    num = list_of(valn.base.element, entry["num"], ("eval", "num"))
    den = list_of(valn.base.element, entry.get("den", [1]), ("eval", "den"))
    f = RationalFunction(tuple(num), tuple(den))
    value = valn.of_fraction(f)
    report = {
        "task": "eval",
        "value": value.to_json() if valn.rank > 1 else value.to_json()[0],
        "classification": valn.classify(),
    }
    if substitution_value(valn, num, den) != value:
        raise InternalError("substitution oracle disagrees")
    report["oracle_agrees"] = True
    return report


def _task_classify(job: dict, depth: int | None) -> dict:
    desc = job["valuation"]
    valn = valuation_from_json(desc, ("valuation",))
    cert = classification_certificate(valn, desc)
    report = {"task": "classify", "certificate": cert.to_dict()}
    if isinstance(valn, PseudoCauchyValuation) and "probe" in job:
        probe = list_of(valn.base.element, obj(job["probe"], ("probe",), required=("num",))["num"],
                        ("probe", "num"))
        along = valn.values_along(probe)
        report["probe_report"] = {
            "values": [None if v is None else str(v) for v in along["values"]],
            "depth": along["depth"],
            "stabilized_at_depth": along["stabilized_at_depth"],
            "stable_from": along["stable_from"],
        }
    return report


def _task_extract(job: dict, depth: int | None) -> dict:
    base = ValuedField.from_json(job["base"], ("base",))
    if (kind := job["base"]["kind"]) not in ("series", "t-adic"):
        raise PreconditionError(f"extract needs a 'series' or 't-adic' base, whose field holds the "
                                f"Hahn series it reads; base.kind {kind!r} has none")
    series = HahnSeries.from_json(job["series"], field=base.coefficients, path=("series",))
    group = Subgroup.generated_by(*base.value_generators(), ambient_rank=1)
    state = TowerState(group, 1, base.residue_field.characteristic)
    seq = extract_homogeneous_sequence(series, state, max_steps=_job_depth(job, depth, required=False))
    report = implicit_constant_report(seq, series)
    report["task"] = "extract"
    return report


def _job_depth(job: dict, override: int | None, required: bool) -> int | None:
    """The --depth override, else the job's `depth`, or None if optional and absent."""
    if override is not None or not (required or "depth" in job):
        return override
    return integer(obj(job, required=("depth",))["depth"], ("depth",))


def _task_defect_tower(job: dict, depth: int | None) -> dict:
    p = integer(job["p"], ("p",))
    schedule = list_of(integer, job["e"], ("e",))
    d = _job_depth(job, depth, required=True)
    cert = build_defect_tower(p, schedule, d,
                              eta_levels=integer(job.get("eta_levels", 5), ("eta_levels",)))
    return {"task": "piltant", "certificate": cert.to_dict()}


def _task_degree_bound(job: dict, depth: int | None) -> dict:
    p = integer(job["p"], ("p",))
    indices = list_of(integer, job["n"], ("n",))
    cert = build_degree_bound(p, indices, _job_depth(job, depth, required=False))
    return {"task": "degree-bound", "certificate": cert.to_dict()}


def _task_extension_step(job: dict, depth: int | None) -> dict:
    p = integer(job["p"], ("p",))
    steps = list_of(ExtensionStep.from_json, job["steps"], ("steps",))
    value_gens = list_of(rational, job.get("value_group", ["1"]), ("value_group",))
    _tower, cert = build_extension_tower(p, steps, value_gens)
    return {"task": "extension-step", "certificate": cert.to_dict()}


def _task_recheck(job: dict, depth: int | None) -> dict:
    if "certificate_data" in job:
        return _recheck_report(job["certificate_data"])
    path = string(obj(job, required=("certificate",))["certificate"], ("certificate",))
    return _recheck_report(_load_json(path))


def _recheck_report(data) -> dict:
    """Validate a certificate, or a report that holds one under "certificate"."""
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    result = validate_certificate(data)
    return {"task": "recheck", "ok": result.ok, "findings": list(result.findings)}


# each task and the job fields that it requires
_TASKS = {
    "eval": (_task_eval, ("valuation", "eval")),
    "classify": (_task_classify, ("valuation",)),
    "extract": (_task_extract, ("base", "series")),
    "piltant": (_task_defect_tower, ("p", "e")),
    "defect-tower": (_task_defect_tower, ("p", "e")),
    "degree-bound": (_task_degree_bound, ("p", "n")),
    "extension-step": (_task_extension_step, ("p", "steps")),
    "recheck": (_task_recheck, ()),
}


def _load_json(path: str):
    """The JSON in the file at path; a file that cannot be read or is not
    JSON (an int past 4300 digits included) is a SchemaError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL in the path, which repr shows
        raise SchemaError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        raise SchemaError(f"not valid JSON: {path}: {exc}") from exc


def _text_summary(report: dict) -> str:
    lines = [f"task: {report.get('task', '?')}"]
    if "value" in report:
        lines.append(f"value: {report['value']}")
    if "classification" in report:
        lines.append(f"classification: {report['classification']}")
    if "certificate" in report:
        cert = report["certificate"]
        lines.append(f"certificate kind: {cert.get('kind')}")
        if "bound" in cert:
            lines.append(f"degree lower bound: {cert['bound']}")
        if "totals" in cert:
            lines.append(f"tower totals: {cert['totals']}")
        if "levels" in cert:
            lines.append(
                "levels: " + ", ".join(f"j={j} value={l['value']}"
                                       for j, l in enumerate(cert["levels"], start=1))
            )
    if "ok" in report:
        lines.append("recheck: pass" if report["ok"] else "recheck: FAIL")
        for f in report.get("findings", []):
            lines.append(f"  finding: {f}")
    if "degree_lower_bound" in report:
        lines.append(f"degree lower bound: {report['degree_lower_bound']}")
        lines.append(f"value group generators: {report['value_group_generators']}")
        lines.append(f"residue field tower: {report['residue_field_tower']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, out_path: str | None, args) -> None:
    text = _dump(report)
    if out_path:
        _write_atomic(out_path, text)
    if getattr(args, "text", False):
        sys.stdout.write(_text_summary(report))
    elif not out_path or getattr(args, "json", False):
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    job = obj(_load_json(args.job))
    task = string(job.get("task"), ("task",), _TASKS)
    run, required = _TASKS[task]
    out_path = None if job.get("output") is None else string(job["output"], ("output",))
    report = run(obj(job, required=required), args.depth)
    _emit(report, out_path, args)
    return 1 if task == "recheck" and not report["ok"] else 0


def _cmd_recheck(args) -> int:
    report = _recheck_report(_load_json(args.certificate))
    _emit(report, None, args)
    return 0 if report["ok"] else 1


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(seed=args.seed)
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        sys.stdout.write(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}\n")
    sys.stdout.write("selftest: " + ("all suites passed\n" if ok else "FAILURES\n"))
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later main() call in the process; parse_args keeps no state between
    calls, so each call gets a fresh namespace of its own."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ratval",
        description="Exact valuations on rational function fields, with re-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a JSON job file")
    p_run.add_argument("job")
    p_run.add_argument("--depth", type=int, default=None, help="override the job's depth")
    p_run.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p_run.add_argument("--text", action="store_true", help="print a human-readable summary")
    p_run.set_defaults(func=_cmd_run)

    p_re = sub.add_parser("recheck", help="re-validate a certificate file")
    p_re.add_argument("certificate")
    p_re.add_argument("--text", action="store_true")
    p_re.set_defaults(func=_cmd_recheck)

    p_st = sub.add_parser("selftest", help="run the seeded property suites")
    p_st.add_argument("--seed", type=int, default=20260810)
    p_st.set_defaults(func=_cmd_selftest)
    return parser


# the verbs whose two-word form `VERB PATH` skips the parser: the name
# the parser gives PATH, and the command
_DIRECT = {"run": ("job", _cmd_run), "recheck": ("certificate", _cmd_recheck)}


def _direct_args(argv: list) -> SimpleNamespace | None:
    """The namespace that the parser makes of `run PATH` or `recheck PATH`,
    with its defaults for the options, for a PATH that is no option; None
    for any other argv."""
    if len(argv) != 2 or argv[0] not in _DIRECT or argv[1].startswith("-"):
        return None
    dest, func = _DIRECT[argv[0]]
    return SimpleNamespace(**{dest: argv[1]}, depth=None, json=False, text=False, func=func)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] if argv is None) and return its
    exit code.  `run PATH` and `recheck PATH` skip the parser; any other
    argv is parsed by the one parser of the process, which prints its
    usage and raises SystemExit(2) on a malformed one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _direct_args(argv) or _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except (PreconditionError, UndecidedError, InternalError) as exc:
        error_report = _dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}
        )
        sys.stdout.write(error_report)
        return 3 if isinstance(exc, InternalError) else 1
    except RatvalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
