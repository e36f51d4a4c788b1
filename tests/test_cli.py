import argparse
import importlib.util
import json
import pathlib
import re
import signal
import subprocess
import sys

import pytest

from ratval import cli
from ratval.cli import main
from ratval.groups import GroupElement
from ratval.schema import where

GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_job(tmp_path, name, job):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _mutation_values():
    """make_golden.MUTATION_VALUES, the values that the mutation golden sets."""
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTATION_VALUES


# the README jobs and one job on each p = 3 series path and on the trivially valued Q
FUZZED_JOBS = ["readme-eval", "readme-classify", "readme-extract", "readme-piltant",
               "readme-degree-bound", "readme-extension-step", "extension-step-p3", "extract-q5",
               "trivial-q-double-root", "piltant-p3"]


def _node_paths(node, path=()):
    """The path of every node under a JSON value: its scalar leaves, lists and objects."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from _node_paths(child, (*path, key))


def _golden_job_with(name, path, value):
    """The golden job NAME with the leaf at `path` set to `value`."""
    job = json.loads((GOLDEN / f"{name}.json").read_text())
    node = job
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return job


class TestRunEval:
    def test_eval_value(self, tmp_path, capsys):
        job = {
            "task": "eval",
            "valuation": {
                "kind": "vag",
                "base": {"kind": "p-adic", "p": 3},
                "center": "0",
                "gamma": ["1"],
            },
            "eval": {"num": ["9", "3", "1"], "den": ["0", "1"]},
        }
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "1"
        assert report["oracle_agrees"] is True

    def test_eval_lex_gamma(self, tmp_path, capsys):
        job = {
            "task": "eval",
            "valuation": {
                "kind": "vag",
                "base": {"kind": "p-adic", "p": 3},
                "center": "0",
                "gamma": ["0", "1"],
            },
            "eval": {"num": ["3", "0", "1"], "den": ["3"]},
        }
        code, out, _ = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == ["-1", "2"]


    def test_tadic_coefficient_list_over_prime_field_exit_1(self, tmp_path, capsys):
        job = {
            "task": "eval",
            "valuation": {
                "kind": "vag",
                "base": {"kind": "t-adic", "coefficients": {"char": 2, "modulus": []}},
                "center": [1, 1],
                "gamma": ["1/2"],
            },
            "eval": {"num": [1, 1]},
        }
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "PreconditionError",
            "message": "an element of the prime field F_2 has one coefficient, got 2",
        }
        assert "Traceback" not in err

    @pytest.mark.parametrize("num", [[{"trunc": "1", "terms": []}, 1],
                                     [{"trunc": "1", "terms": []}, {"trunc": "1", "terms": []}, 1]],
                             ids=["O(t) + x", "O(t) + O(t) x + x^2"])
    def test_series_coefficient_known_only_above_its_bound_is_undecided(self, num, tmp_path, capsys):
        # O(t) has a value >= 1 and no more is known: at gamma 2 the value
        # min(v(O(t)), 2) lies anywhere in [1, 2], where "2" and "4" were reported
        job = {"task": "eval",
               "valuation": {"base": {"kind": "series", "coefficients": {"char": 2}},
                             "center": 0, "gamma": ["2"]},
               "eval": {"num": num}}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out)["error"]["type"] == "UndecidedError"


class TestRunCertificates:
    def test_piltant_roundtrip(self, tmp_path, capsys):
        job = {"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11], "depth": 4,
               "output": str(tmp_path / "cert.json")}
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "cert.json")], capsys)
        assert code2 == 0
        assert json.loads(out2)["ok"] is True

    @pytest.mark.parametrize("depth", [0, -3])
    def test_piltant_without_levels_is_a_domain_error(self, depth, tmp_path, capsys):
        # like a depth beyond the witnessed levels: exit 1 with an error
        # report, where depth 0 used to certify no level at all
        job = {"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11], "depth": depth}
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == {"message": f"depth {depth} must be an int >= 1",
                                            "type": "PreconditionError"}

    @pytest.mark.parametrize("task", ["piltant", "degree-bound"])
    @pytest.mark.parametrize("depth", [True, False, 2.9, 3.0, "3", None, [3]])
    def test_depth_that_is_not_a_json_int_is_a_schema_error(self, task, depth, tmp_path, capsys):
        # int(...) used to read true as 1, 2.9 as 2 and "3" as 3, and run
        job = ({"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11]} if task == "piltant"
               else {"task": "degree-bound", "p": 2, "n": [3, 5, 7, 11]})
        job["depth"] = depth
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert (code, out) == (2, "")
        assert err == f"schema error: field 'depth' must be a JSON integer, got {json.dumps(depth)}\n"

    def test_piltant_without_a_depth_is_a_schema_error(self, tmp_path, capsys):
        job = {"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11]}
        code, _, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 2 and "'depth'" in err

    def test_classify_base_coord_as_string(self, tmp_path, capsys):
        # the descriptor keeps "1" as given; the job parser and the
        # validator both read it as the int 1
        job = {"task": "classify",
               "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                             "center": "0", "gamma": ["1/2", "0"], "base_coord": "1"},
               "output": str(tmp_path / "cert.json")}
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "cert.json")], capsys)
        assert (code2, json.loads(out2)["ok"]) == (0, True)

    def test_degree_bound_and_tamper(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 5, 7, 11],
               "output": str(tmp_path / "db.json")}
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        data = json.loads((tmp_path / "db.json").read_text())
        assert data["certificate"]["bound"] == 1155
        data["certificate"]["bound"] = 1154
        (tmp_path / "tampered.json").write_text(json.dumps(data))
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "tampered.json")], capsys)
        assert code2 == 1
        assert json.loads(out2)["ok"] is False

    def test_degree_bound_precondition_exit_1(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 4], "depth": 2}
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 1
        report = json.loads(out)
        assert "n_2 = 4" in report["error"]["message"]

    def test_negative_schedule_exponent_exit_1(self, tmp_path, capsys):
        job = {"task": "piltant", "p": 2, "e": [-1, 2, 4, 7, 11], "depth": 4}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == {"type": "PreconditionError",
                                            "message": "schedule exponent e_1 = -1 must be >= 0"}
        assert "Traceback" not in err

    @pytest.mark.parametrize("job", [
        {"task": "degree-bound", "p": 10 ** 400, "n": [3, 5]},
        {"task": "eval",
         "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 10 ** 400},
                       "center": "0", "gamma": ["1"]},
         "eval": {"num": ["1", "1"]}},
    ], ids=["degree-bound", "p-adic-eval"])
    def test_prime_beyond_float_range_exit_1(self, tmp_path, capsys, job):
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {"type": "PreconditionError", "message": f"{10 ** 400} is not prime"}

    def test_degree_bound_not_pairwise_coprime(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 5, 9],
               "output": str(tmp_path / "db.json")}
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        assert json.loads((tmp_path / "db.json").read_text())["certificate"]["bound"] == 45
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "db.json")], capsys)
        assert code2 == 0
        assert json.loads(out2)["ok"] is True

    def test_degree_bound_redundant_index_exit_1(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 7, "n": [6, 10, 15]}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["error"]["type"] == "PreconditionError"
        assert "n_3 = 15" in report["error"]["message"]
        assert "Traceback" not in err

    def test_extension_step_task(self, tmp_path, capsys):
        job = {
            "task": "extension-step",
            "p": 2,
            "steps": [
                {"kind": "kummer", "alpha": "1/3"},
                {"kind": "residue", "modulus": [1, 1, 1]},
            ],
            "output": str(tmp_path / "tower.json"),
        }
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "tower.json")], capsys)
        assert code2 == 0

    def test_classify_task(self, tmp_path, capsys):
        job = {
            "task": "classify",
            "valuation": {
                "kind": "vag",
                "base": {"kind": "p-adic", "p": 3},
                "center": "0",
                "gamma": ["1/2"],
            },
            "output": str(tmp_path / "cl.json"),
        }
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        cert = json.loads((tmp_path / "cl.json").read_text())["certificate"]
        assert (cert["trichotomy_flags"], cert["torsion_order"]) == ([False, True, False], 2)
        code2, _, _ = run_cli(["recheck", str(tmp_path / "cl.json")], capsys)
        assert code2 == 0

    def test_pseudo_cauchy_classify_task(self, tmp_path, capsys):
        """A pcs descriptor's elements are read at valuation.elements[i] and
        its certificate rechecks with the descriptor built again."""
        series = [{"trunc": "1", "terms": [[f"{3 ** k - 1}/{3 ** k}", 1] for k in range(1, i + 1)]}
                  for i in range(1, 4)]
        job = {"task": "classify",
               "valuation": {"kind": "pcs", "elements": series,
                             "base": {"kind": "series", "coefficients": {"char": 2, "modulus": []}}},
               "probe": {"num": [1, 1]}, "output": str(tmp_path / "pcs.json")}
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "pcs.json")], capsys)
        assert (code2, json.loads(out2)["ok"]) == (0, True)
        job["valuation"]["elements"][1]["terms"][0] = ["x", 1]
        code3, _, err3 = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert (code3, err3) == (2, "schema error: field 'valuation.elements[1].terms[0][0]' must be an "
                                    'exact rational (a JSON int or a "num/den" string), got "x"\n')

    def test_extension_step_over_the_trivial_value_group(self, tmp_path, capsys):
        # an empty value_group is the trivial group of rank 1: a residue
        # step certifies and rechecks, a kummer step has no torsion order
        job = {"task": "extension-step", "p": 2, "value_group": [],
               "steps": [{"kind": "residue", "modulus": [1, 1, 1]}],
               "output": str(tmp_path / "tower.json")}
        code, _, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        code2, out2, _ = run_cli(["recheck", str(tmp_path / "tower.json")], capsys)
        assert (code2, json.loads(out2)["ok"]) == (0, True)
        job = {"task": "extension-step", "p": 2, "value_group": [],
               "steps": [{"kind": "kummer", "alpha": "1/3"}]}
        code, out, _ = run_cli(["run", write_job(tmp_path, "job2.json", job)], capsys)
        assert code == 1
        assert "outside the rational span" in json.loads(out)["error"]["message"]

    def test_extract_reads_the_depth_of_its_job(self, tmp_path, capsys):
        job = json.loads((GOLDEN / "readme-extract.json").read_text())
        code, flag, _ = run_cli(["run", write_job(tmp_path, "job.json", job), "--depth", "2"], capsys)
        job["depth"] = 2
        code2, field, _ = run_cli(["run", write_job(tmp_path, "job2.json", job)], capsys)
        assert code == code2 == 0 and field == flag
        report = json.loads(field)
        assert (report["depth"], report["degree_lower_bound"], report["exhausted_at_depth"]) == (2, 9, False)
        # --depth overrides the job's depth
        code3, out3, _ = run_cli(["run", write_job(tmp_path, "job2.json", job), "--depth", "3"], capsys)
        assert (code3, json.loads(out3)["depth"]) == (0, 3)

    @pytest.mark.parametrize("name, change, argv, message", [
        ("readme-extract", {}, ["--depth", "-1"], "depth -1 must be an int >= 0"),
        ("readme-extract", {"depth": -1}, [], "depth -1 must be an int >= 0"),
        ("readme-piltant", {"eta_levels": -3}, [], "eta_levels -3 must be an int >= 0"),
    ], ids=["extract --depth", "extract depth", "piltant eta_levels"])
    def test_negative_count_is_refused(self, name, change, argv, message, tmp_path, capsys):
        # each ran to exit 0 with an empty sequence or an empty eta tower
        job = {**json.loads((GOLDEN / f"{name}.json").read_text()), **change}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job), *argv], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {"message": message, "type": "PreconditionError"}

    def test_recheck_as_a_task(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 5],
               "output": str(tmp_path / "db.json")}
        run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        recheck_job = {"task": "recheck", "certificate": str(tmp_path / "db.json")}
        code, out, _ = run_cli(["run", write_job(tmp_path, "re.json", recheck_job)], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True
        data = json.loads((tmp_path / "db.json").read_text())
        data["certificate"]["bound"] = 7
        (tmp_path / "bad.json").write_text(json.dumps(data))
        bad_job = {"task": "recheck", "certificate": str(tmp_path / "bad.json")}
        code2, out2, _ = run_cli(["run", write_job(tmp_path, "re2.json", bad_job)], capsys)
        assert code2 == 1
        assert json.loads(out2)["ok"] is False

    @pytest.mark.parametrize("job", [
        {"task": "piltant", "p": 2, "e": [1, 2, 4, 7], "depth": 3},
        {"task": "degree-bound", "p": 2, "n": [3, 5, 7]},
    ], ids=["defect-tower", "degree-bound"])
    def test_recheck_unprovable_prime_is_a_finding(self, tmp_path, capsys, job):
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        report = json.loads(out)
        report["certificate"]["p"] = 2 ** 89 - 1
        (tmp_path / "cert.json").write_text(json.dumps(report))
        code2, out2, err2 = run_cli(["recheck", str(tmp_path / "cert.json")], capsys)
        assert code2 == 1
        recheck = json.loads(out2)
        assert "error" not in recheck and recheck["ok"] is False
        assert recheck["findings"][0].startswith("p cannot be proven prime: ")
        assert "Traceback" not in err2

    @pytest.mark.parametrize("data", [[1, 2], "x", {"p": 2}, "version-99"],
                             ids=["list", "string", "no-kind", "version-99"])
    def test_recheck_of_a_non_certificate_exits_1(self, tmp_path, capsys, data):
        if data == "version-99":
            code, out, _ = run_cli(["run", write_job(tmp_path, "job.json",
                                                     {"task": "degree-bound", "p": 2, "n": [3, 5]})],
                                   capsys)
            data = json.loads(out)
            data["certificate"]["schema_version"] = 99
        path = write_job(tmp_path, "cert.json", data)
        for argv in (["recheck", path],
                     ["run", write_job(tmp_path, "re.json", {"task": "recheck", "certificate": path})]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1
            report = json.loads(out)
            assert report["ok"] is False and len(report["findings"]) == 1
            assert err == ""

    @pytest.mark.parametrize("job, path, value, finding", [
        ({"task": "degree-bound", "p": 2, "n": [3, 5]}, ["exponents", 0], "1/0",
         'field \'exponents[0]\' must be an exact rational (a JSON int or a "num/den" string), got "1/0"'),
        ({"task": "extension-step", "p": 2, "steps": [{"kind": "kummer", "alpha": "1/3"}]},
         ["steps", 0, "alpha"], "x",
         'field \'steps[0].alpha\' must be an exact rational (a JSON int or a "num/den" string), got "x"'),
        ({"task": "piltant", "p": 2, "e": [1, 2, 4, 7], "depth": 3},
         ["levels", 0, "witness_exponents"], 10 ** 6,
         "field 'levels[0].witness_exponents' must be a JSON list, got 1000000"),
        ({"task": "classify", "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                                            "center": "0", "gamma": ["1/2"]}},
         ["descriptor", "base"], "x", 'field \'descriptor.base\' must be a JSON object, got "x"'),
    ], ids=["zero-denominator", "alpha-not-a-rational", "level-witnesses-not-a-list",
            "base-not-an-object"])
    def test_recheck_of_a_malformed_field_exits_1(self, tmp_path, capsys, job, path, value, finding):
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        node = data = json.loads(out)
        for key in ["certificate"] + path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code, out, err = run_cli(["recheck", write_job(tmp_path, "cert.json", data)], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["findings"] == [finding]
        assert err == ""

    def test_extract_task(self, tmp_path, capsys):
        job = {
            "task": "extract",
            "base": {"kind": "series", "coefficients": {"char": 2, "modulus": []},
                     "value_group": ["1"]},
            "series": {
                "trunc": "1",
                "terms": [["2/3", 1], ["8/9", 1], ["26/27", 1], ["80/81", 1]],
            },
        }
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["value_group_generators"] == [["1/81"]]
        assert report["degree_lower_bound"] == 81

    @pytest.mark.parametrize("base", [{"kind": "trivial", "coefficients": {"char": 3}},
                                      {"kind": "p-adic", "p": 3}], ids=["trivial", "p-adic"])
    def test_extract_over_a_base_with_no_hahn_series_exit_1(self, base, tmp_path, capsys):
        # the series is never read: a term that is not a pair is no schema error here
        job = {"task": "extract", "base": base, "series": {"trunc": "1", "terms": [["1/2"]]}}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {
            "type": "PreconditionError",
            "message": f"extract needs a 'series' or 't-adic' base, whose field holds the Hahn "
                       f"series it reads; base.kind {base['kind']!r} has none"}

    def test_extract_residue_lost_to_the_power(self, tmp_path, capsys):
        # w t^(1/3) over F_4 cubes to t: one step (e, f) = (3, 1), exit 0
        job = {
            "task": "extract",
            "base": {"kind": "series", "coefficients": {"char": 2, "modulus": [1, 1, 1]},
                     "value_group": ["1"]},
            "series": {"trunc": "2", "terms": [["1/3", [0, 1]], ["1", 1]]},
        }
        code, out, _ = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert code == 0
        report = json.loads(out)
        assert [(s["e"], s["f"]) for s in report["sequence"]] == [(3, 1)]
        assert report["residue_field_tower"] == [1, 1]
        assert report["degree_lower_bound"] == 3


class TestErrors:
    TASKS = ('"eval", "classify", "extract", "piltant", "defect-tower", "degree-bound", '
             '"extension-step", "recheck"')

    def test_unknown_task_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["run", write_job(tmp_path, "job.json", {"task": "nope"})], capsys)
        assert code == 2
        assert err == f'schema error: field \'task\' must be one of {self.TASKS}, got "nope"\n'

    def test_unhashable_task_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["run", write_job(tmp_path, "job.json", {"task": ["eval"]})], capsys)
        assert code == 2
        assert err == f'schema error: field \'task\' must be one of {self.TASKS}, got ["eval"]\n'

    def test_bad_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["run", "/nonexistent/job.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("verb", ["run", "recheck"])
    def test_path_with_a_nul_byte_cannot_be_read_exit_2(self, verb, capsys):
        """open raises ValueError on a NUL in the path; it used to be
        reported as JSON that does not decode, with the raw NUL written."""
        code, out, err = run_cli([verb, "a\x00b"], capsys)
        assert (code, out) == (2, "")
        assert err == "schema error: cannot read 'a\\x00b': embedded null byte\n"
        assert "\x00" not in err

    @pytest.mark.parametrize("gamma", [True, 1.5], ids=["bool", "float"])
    def test_gamma_that_is_not_an_exact_rational_exit_2(self, gamma, tmp_path, capsys):
        """The README eval job with gamma [true] is not run as gamma = 1,
        and with gamma [1.5] it ends in no traceback."""
        job = json.loads((GOLDEN / "readme-eval.json").read_text())
        job["valuation"]["gamma"] = [gamma]
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert code == 2 and out == ""
        assert err == ("schema error: field 'valuation.gamma[0]' must be an exact rational "
                       f'(a JSON int or a "num/den" string), got {json.dumps(gamma)}\n')

    @pytest.mark.parametrize("name, path, value, message", [
        ("readme-eval", ["valuation", "gamma", 0], "x", "field 'valuation.gamma[0]' must be an exact "
         'rational (a JSON int or a "num/den" string), got "x"'),
        ("readme-eval", ["valuation", "gamma", 0], "1/0", "field 'valuation.gamma[0]' must be an exact "
         'rational (a JSON int or a "num/den" string), got "1/0"'),
        ("readme-extension-step", ["value_group"], ["x"], "field 'value_group[0]' must be an exact "
         'rational (a JSON int or a "num/den" string), got "x"'),
        ("readme-extension-step", ["value_group"], ["1/0"], "field 'value_group[0]' must be an exact "
         'rational (a JSON int or a "num/den" string), got "1/0"'),
    ], ids=["gamma-x", "gamma-1/0", "value-group-x", "value-group-1/0"])
    def test_exponent_string_that_is_not_a_rational_exit_2(self, name, path, value, message,
                                                            tmp_path, capsys):
        """An exponent string that Fraction cannot read is a schema error,
        not a ValueError or ZeroDivisionError traceback."""
        job = _golden_job_with(name, path, value)
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out, err) == (2, "", f"schema error: {message}\n")

    # (job, path, the name its schema errors give, the values of the right
    # type, which must not exit 2): gamma, center and eval.num[0] take
    # rationals, p an int, and base_coord 0 as an int or a digit string
    READER_FIELDS = [
        (job, path, name, ok)
        for job in ("readme-eval", "readme-classify")
        for path, name, ok in [
            (["valuation", "gamma"], "'valuation.gamma'", (-1, 0, 2, 10 ** 6, "0")),
            (["valuation", "base", "p"], "'valuation.base.p'", (-1, 0, 2, 10 ** 6)),
            (["valuation", "center"], "'valuation.center'", (-1, 0, 2, 10 ** 6, "0")),
            (["valuation", "base_coord"], "'valuation.base_coord'", (0, "0")),
            *([(["eval", "num", 0], "'eval.num[0]'", (-1, 0, 2, 10 ** 6, "0"))]
              if job == "readme-eval" else []),
        ]
    ]

    @pytest.mark.parametrize("name, path, field, well_typed", READER_FIELDS,
                             ids=[f"{j}-{'.'.join(map(str, p))}" for j, p, _, _ in READER_FIELDS])
    def test_valuation_readers_are_total(self, name, path, field, well_typed, tmp_path, capsys):
        """Every mutation value, 1.5 and 1e400 in the README eval and
        classify jobs' valuation and eval fields: cli.main returns 0, 1 or
        2, and a value of the wrong type (a bool, a float, null, a list, an
        object or a string that is no rational) is a schema error, exit 2,
        naming the field.  These used to escape as TypeError, ValueError or
        ZeroDivisionError, to run p = 2.5 2-adically, to read true as 1 and
        base_coord -1 as the last coordinate."""
        for value in (*_mutation_values(), 1.5, 1e400):
            job = _golden_job_with(name, path, value)
            code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
            if any(value == v and type(value) is type(v) for v in well_typed):
                assert code in (0, 1), (value, err)
            else:
                assert (code, out) == (2, ""), value
                assert err.startswith("schema error: ") and field in err, (value, err)

    def test_base_coord_digit_string_past_the_digit_limit_exit_2(self, tmp_path, capsys):
        """int() of a string of 5000 digits raised a ValueError traceback."""
        job = _golden_job_with("readme-classify", ["valuation", "base_coord"], "9" * 5000)
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("schema error: field 'valuation.base_coord' must be a coordinate index "
                              'of gamma, 0 to 0, got "999')

    @pytest.mark.parametrize("name, path, value, field", [
        ("readme-piltant", ["p"], 2.5, "p"),
        ("readme-piltant", ["p"], "x", "p"),
        ("readme-piltant", ["e", 1], 2.9, "e[1]"),
        ("readme-piltant", ["e", 0], True, "e[0]"),
        ("readme-piltant", ["e", 2], "4", "e[2]"),
        ("readme-piltant", ["eta_levels"], "x", "eta_levels"),
        ("readme-piltant", ["eta_levels"], 3.0, "eta_levels"),
        ("readme-degree-bound", ["p"], True, "p"),
        ("readme-degree-bound", ["p"], "x", "p"),
        ("readme-degree-bound", ["n", 1], 5.5, "n[1]"),
        ("readme-degree-bound", ["n", 1], "x", "n[1]"),
        ("readme-extension-step", ["p"], 2.5, "p"),
        ("readme-extension-step", ["p"], None, "p"),
    ])
    def test_certificate_job_int_field_that_is_not_a_json_int_exit_2(self, name, path, value, field,
                                                                     tmp_path, capsys):
        """int(...) used to run p = 2.5 as 2, e[1] = 2.9 as 2 and true as
        1, and to end "x" in a ValueError traceback."""
        job = _golden_job_with(name, path, value)
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out) == (2, "")
        assert err == f"schema error: field {field!r} must be a JSON integer, got {json.dumps(value)}\n"

    @pytest.mark.parametrize("key", ["e", "n"])
    def test_certificate_job_list_field_that_is_not_a_list_exit_2(self, key, tmp_path, capsys):
        job = _golden_job_with("readme-piltant" if key == "e" else "readme-degree-bound", [key], 5)
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out, err) == (2, "", f"schema error: field {key!r} must be a JSON list, got 5\n")

    @pytest.mark.parametrize("coefficients", ["Q", [2], {"char": "2"}, {"char": 2.0}, {"char": True}])
    def test_coefficient_field_that_is_not_an_object_with_an_int_char_exit_2(self, coefficients,
                                                                            tmp_path, capsys):
        """A t-adic base with "coefficients": "Q" used to end in an
        AttributeError traceback, and a char of "2" was read as 2."""
        job = _golden_job_with("tadic-deg4", ["valuation", "base", "coefficients"], coefficients)
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out) == (2, "")
        at = "valuation.base.coefficients"
        assert err == (f"schema error: field '{at}' must be a JSON object, got {json.dumps(coefficients)}\n"
                       if type(coefficients) is not dict else
                       f"schema error: field '{at}.char' must be a JSON integer, "
                       f"got {json.dumps(coefficients['char'])}\n")

    @pytest.mark.parametrize("entry", [1.5, "x", True, None])
    def test_modulus_entry_that_is_not_a_json_int_exit_2(self, entry, tmp_path, capsys):
        """A modulus entry 1.5 used to be read as 1, over another field,
        and "x" ended in a ValueError traceback."""
        job = _golden_job_with("tadic-deg4", ["valuation", "base", "coefficients"],
                               {"char": 3, "modulus": [1, 0, entry]})
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out) == (2, "")
        assert err == ("schema error: field 'valuation.base.coefficients.modulus[2]' must be a JSON integer, "
                       f"got {json.dumps(entry)}\n")

    @pytest.mark.parametrize("modulus", ["X^2 + 1", 5, {"0": 1}])
    def test_modulus_that_is_not_a_list_exit_2(self, modulus, tmp_path, capsys):
        job = _golden_job_with("tadic-deg4", ["valuation", "base", "coefficients"],
                               {"char": 3, "modulus": modulus})
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        assert (code, out) == (2, "")
        assert err == ("schema error: field 'valuation.base.coefficients.modulus' must be a JSON list, "
                       f"got {json.dumps(modulus)}\n")

    def test_missing_field_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["run", write_job(tmp_path, "j.json", {"task": "piltant"})], capsys)
        assert code == 2

    @pytest.mark.parametrize("job", [{"task": "recheck", "certificate": 1},
                                     {"task": "recheck", "certificate": 0},
                                     {"task": "degree-bound", "p": 2, "n": [3, 5], "output": 5}],
                             ids=["certificate-fd-1", "certificate-fd-0", "output-int"])
    def test_path_that_is_not_a_json_string_exit_2(self, job, tmp_path, capsys):
        """A certificate path 1 used to read fd 1 and close the caller's
        stdout, 0 read stdin, and an int output ended in a TypeError."""
        code, out, err = run_cli(["run", write_job(tmp_path, "j.json", job)], capsys)
        field = "certificate" if "certificate" in job else "output"
        assert (code, out, err) == (2, "", f"schema error: field {field!r} must be a JSON string, "
                                           f"got {job[field]}\n")

    @pytest.mark.parametrize("output, reason", [("no-such-dir/db.json", "No such file or directory"),
                                                ("job.json/db.json", "Not a directory"),
                                                ("sub", "Is a directory")])
    def test_output_path_that_cannot_be_written_exit_2(self, output, reason, tmp_path, capsys):
        """It used to end in a FileNotFoundError traceback; no temporary
        file is left beside the path."""
        (tmp_path / "sub").mkdir()
        path = str(tmp_path / output)
        job = {"task": "degree-bound", "p": 2, "n": [3, 5], "output": path}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert (code, out, err) == (2, "", f"schema error: cannot write {path}: {reason}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["job.json", "sub"]

    def test_output_path_with_a_nul_byte_exit_2(self, tmp_path, capsys, monkeypatch):
        """os.replace raises ValueError on a NUL in the path; the error used
        to write the raw NUL to stderr.  The temporary file beside it goes."""
        monkeypatch.chdir(tmp_path)
        job = {"task": "degree-bound", "p": 2, "n": [3, 5], "output": "a\x00b"}
        code, out, err = run_cli(["run", write_job(tmp_path, "job.json", job)], capsys)
        assert (code, out) == (2, "")
        assert err == "schema error: cannot write 'a\\x00b': embedded null byte\n"
        assert "\x00" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["job.json"]

    @pytest.mark.parametrize("verb", ["run", "recheck"])
    def test_json_int_past_the_digit_limit_exit_2(self, verb, tmp_path, capsys):
        """json.load raises ValueError, not JSONDecodeError, on an int of
        more than 4300 digits; it used to escape as a traceback."""
        path = tmp_path / "big.json"
        path.write_text('{"task": "piltant", "p": 2, "e": [1, 2], "depth": ' + "1" * 5000 + "}")
        code, out, err = run_cli([verb, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"schema error: not valid JSON: {path}: Exceeds the limit (4300 digits)")

    def test_int_field_nested_near_the_recursion_limit_exit_2(self, tmp_path, capsys):
        """Lists nested near the recursion limit in an int field, at every
        depth: whether json.loads refuses it or the error cannot show it,
        which used to raise RecursionError, it is a schema error."""
        path = tmp_path / "deep.json"
        limit = sys.getrecursionlimit()
        shown = set()
        for depth in range(limit - 200, limit + 1):
            path.write_text('{"task": "piltant", "e": [1, 2], "depth": 1, "p": '
                            + "[" * depth + "]" * depth + "}")
            code, out, err = run_cli(["run", str(path)], capsys)
            assert (code, out) == (2, ""), depth
            if err.startswith("schema error: field 'p' must be a JSON integer, got "):
                shown.add(err[len("schema error: field 'p' must be a JSON integer, got "):][:3])
            else:
                assert err.startswith(f"schema error: not valid JSON: {path}: maximum recursion depth")
        assert "[[[" in shown

    @pytest.mark.parametrize("name", FUZZED_JOBS)
    def test_fuzzed_golden_jobs_exit_0_1_or_2(self, name, tmp_path, capsys):
        """Each scalar leaf and each list or object node of the golden job
        set to each mutation value, 1.5 and 10^30: cli.main returns 0, 1 or
        2 within a few seconds and raises nothing, and a schema error names
        the JSON path of the node, of a field under it or of another field
        that the mutation made ill-typed (a center read over a new
        coefficient field).  These used to escape as TypeError,
        AttributeError, ValueError or ZeroDivisionError, and a piltant
        e[k] = 10^30 did not return."""
        job = json.loads((GOLDEN / f"{name}.json").read_text())

        def expired(signum, frame):
            raise TimeoutError("cli.main ran past its alarm")

        previous = signal.signal(signal.SIGALRM, expired)
        try:
            for path in _node_paths(job):
                for value in (*_mutation_values(), 1.5, 10 ** 30):
                    signal.alarm(5)
                    code, out, err = run_cli(
                        ["run", write_job(tmp_path, "j.json", _golden_job_with(name, path, value))], capsys)
                    signal.alarm(0)
                    assert code in (0, 1, 2), (path, value, code)
                    if code == 2:
                        named = re.match(r"schema error: (?:field|missing the required field) '([^']*)'", err)
                        assert named, (path, value, err)
                        mutated = _golden_job_with(name, path, value)
                        assert named[1].startswith(where(path)) or named[1] in map(where, _node_paths(mutated)), (
                            path, value, err)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestDeterminism:
    def test_identical_jobs_identical_reports(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 5, 7],
               "output": str(tmp_path / "a.json")}
        run_cli(["run", write_job(tmp_path, "job1.json", job)], capsys)
        job["output"] = str(tmp_path / "b.json")
        run_cli(["run", write_job(tmp_path, "job2.json", job)], capsys)
        a = (tmp_path / "a.json").read_bytes()
        b = (tmp_path / "b.json").read_bytes()
        assert a == b

    def test_depth_override_flag(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 5, 7, 11], "depth": 4}
        code, out, _ = run_cli(
            ["run", write_job(tmp_path, "j.json", job), "--depth", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["certificate"]["bound"] == 15


class TestRepeatedCalls:
    """main() builds its parser once and may be called again and again in
    one process; nothing of one call's arguments reaches the next."""

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch, request):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        request.addfinalizer(cli._parser.cache_clear)
        job = write_job(tmp_path, "j.json", {"task": "degree-bound", "p": 2, "n": [3, 5]})
        for argv in (["run", job], ["run", job, "--text"], ["recheck", job], ["run", job]) * 3:
            run_cli(argv, capsys)
        # one top-level parser and its three subcommand parsers
        assert built == ["ratval", "ratval run", "ratval recheck", "ratval selftest"]

    def test_depth_override_does_not_carry_over(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json",
                        {"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11], "depth": 4})
        code, out, _ = run_cli(["run", job, "--depth", "3"], capsys)
        assert code == 0 and len(json.loads(out)["certificate"]["levels"]) == 3
        code, out, _ = run_cli(["run", job], capsys)
        assert code == 0 and len(json.loads(out)["certificate"]["levels"]) == 4
        assert out == (GOLDEN / "readme-piltant.out").read_text()

    def test_text_does_not_carry_over(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", {"task": "degree-bound", "p": 2, "n": [3, 5, 7]})
        code, out, _ = run_cli(["run", job, "--text"], capsys)
        assert code == 0 and "degree lower bound: 105" in out
        code, out, _ = run_cli(["run", job], capsys)
        assert code == 0 and json.loads(out)["certificate"]["bound"] == 105

    def test_argparse_error_leaves_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        code, out, _ = run_cli(["run", str(GOLDEN / "readme-eval.json")], capsys)
        assert code == 0
        assert out == (GOLDEN / "readme-eval.out").read_text()


class TestDirectDispatch:
    """`run PATH` and `recheck PATH` go straight to their task with the
    parser's defaults; every other argv goes through the parser."""

    @pytest.mark.parametrize("verb, name", [("run", "readme-eval.json"),
                                            ("recheck", "readme-classify.out")])
    def test_two_word_form_is_the_parsers_namespace(self, verb, name, capsys, request):
        path = str(GOLDEN / name)
        cli._parser.cache_clear()
        request.addfinalizer(cli._parser.cache_clear)
        code, out, _ = run_cli([verb, path], capsys)
        assert cli._parser.cache_info().currsize == 0  # no parser was built
        parsed = cli._parser().parse_args([verb, path])
        assert (code, out) == (parsed.func(parsed), capsys.readouterr().out) and code == 0
        direct, parsed = vars(cli._direct_args([verb, path])), vars(parsed)
        # an option that `recheck` does not take reads as absent: getattr(args, key, default)
        for key, absent in (("job", None), ("certificate", None), ("depth", None),
                            ("json", False), ("text", False), ("func", None)):
            assert direct.get(key, absent) == parsed.get(key, absent), key

    @pytest.mark.parametrize("argv, code, err", [
        (["run"], 2, "the following arguments are required: job"),
        (["run", "-x"], 2, "the following arguments are required: job"),
        (["recheck", str(GOLDEN / "readme-classify.out"), "--text"], 0, ""),
        (["frobnicate"], 2, "invalid choice"),
    ], ids=["run", "run -x", "recheck --text", "frobnicate"])
    def test_other_argv_goes_through_the_parser(self, argv, code, err, capsys):
        assert cli._direct_args(argv) is None

        def outcome(call):
            try:
                got = call(argv)
            except SystemExit as exc:
                got = exc.code
            return got, capsys.readouterr()

        got, captured = outcome(main)
        assert got == code and err in captured.err and bool(err) == bool(captured.err)
        if code:  # the parser's own usage error, as parse_args gives it
            assert captured.err.startswith("usage: ratval")
            assert outcome(cli._parser().parse_args) == (code, captured)
        else:
            assert captured.out == "task: recheck\nrecheck: pass\n"


class TestTextOutput:
    def test_text_summary(self, tmp_path, capsys):
        job = {"task": "degree-bound", "p": 2, "n": [3, 5, 7]}
        code, out, _ = run_cli(["run", write_job(tmp_path, "j.json", job), "--text"], capsys)
        assert code == 0
        assert "degree lower bound: 105" in out

    def test_piltant_summary_numbers_levels_by_position(self, capsys):
        # a level records no number of its own: the summary counts them
        code, out, _ = run_cli(["run", str(GOLDEN / "readme-piltant.json"), "--text"], capsys)
        assert (code, out) == (0, "task: piltant\ncertificate kind: defect-tower\nlevels: j=1 "
                                  "value=-1/2, j=2 value=-1/4, j=3 value=-1/8, j=4 value=-1/16\n")

    def test_eval_summary(self, capsys):
        code, out, _ = run_cli(["run", str(GOLDEN / "readme-eval.json"), "--text"], capsys)
        assert (code, out) == (0, "task: eval\nvalue: 1\nclassification: residue-transcendental\n")

    def test_extract_summary(self, capsys):
        code, out, _ = run_cli(["run", str(GOLDEN / "readme-extract.json"), "--text"], capsys)
        assert (code, out) == (0, "task: extract\ndegree lower bound: 81\nvalue group generators: "
                                  "[['1/81']]\nresidue field tower: [1, 1, 1, 1, 1]\n")

    def test_recheck_summaries(self, tmp_path, capsys):
        code, out, _ = run_cli(["recheck", str(GOLDEN / "readme-degree-bound.out"), "--text"], capsys)
        assert (code, out) == (0, "task: recheck\nrecheck: pass\n")
        data = json.loads((GOLDEN / "readme-degree-bound.out").read_text())
        data["certificate"]["bound"] = 7
        code, out, _ = run_cli(["recheck", write_job(tmp_path, "bad.json", data), "--text"], capsys)
        assert (code, out) == (1, "task: recheck\nrecheck: FAIL\n"
                                  "  finding: bound 7 differs from lcm = 1155\n")


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"task": "degree-bound", "p": 2, "n": [3, 5]}))
        proc = subprocess.run(
            [sys.executable, "-m", "ratval.cli", "run", str(job)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["certificate"]["bound"] == 15

    def test_selftest_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ratval.cli", "selftest", "--seed", "7"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert "all suites passed" in proc.stdout


class TestInternalError:
    def test_oracle_disagreement_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "substitution_value",
                            lambda valn, num, den=None: GroupElement.of(99))
        code, out, err = run_cli(["run", str(GOLDEN / "readme-eval.json")], capsys)
        assert code == 3
        assert json.loads(out) == {
            "error": {"type": "InternalError", "message": "substitution oracle disagrees"}
        }
        assert err == ""
