import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from hypme import __version__, cli, coupling, graphs, groups, hyperbolicity
from hypme.cli import dispatch
from hypme.integrability import power
from hypme.reports import encode
from oracles import brute_claim_sweep

GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")
F2_SPEC = {"group": "F2", "subgroup_generators": ["aa", "b", "abA"], "x_gamma": "e"}
Z2_SPEC = {"group": "Z^2", "subgroup_generators": ["aa", "b"], "x_gamma": "e"}


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = dispatch(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def write_spec(tmp_path, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


def assert_commands_leave_unloaded(tmp_path, module, runs):
    """Import hypme.cli and dispatch each of `runs` in one fresh interpreter;
    each must exit 0 and leave `module` out of sys.modules."""
    out = str(tmp_path / "r.json")
    code = (
        "import json, sys\n"
        "import hypme.cli\n"
        f"seen = [('import', 0, {module!r} in sys.modules)]\n"
        f"for argv in {runs!r}:\n"
        f"    exit_code = hypme.cli.dispatch(argv + ['--out', {out!r}])\n"
        f"    seen.append((argv[0], exit_code, {module!r} in sys.modules))\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(proc.stdout)
    assert len(seen) == 1 + len(runs)
    assert all(exit_code == 0 and not loaded for _, exit_code, loaded in seen), seen


class TestEnvelope:
    def test_version_config_seed_budget_recorded(self, tmp_path):
        code, doc = run(tmp_path, "graph-analyze", "--gen", "tree:3,6", "--seed", "5")
        assert code == 0
        assert doc["version"] == __version__
        assert doc["config"]["seed"] == 5
        assert doc["config"]["gen"] == "tree:3,6"
        assert "budget_effective" in doc["config"]
        assert doc["report"]["delta_thin"] == "0/1"

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "r.json"
        args = ["find-cycles", "--gen", "grid:6,6", "--min-a", "1/2",
                "--min-n", "20", "--seed", "3", "--out", str(out)]
        assert dispatch(args) == 0
        first = out.read_bytes()
        assert dispatch(args) == 0
        assert out.read_bytes() == first

    def test_env_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPME_BUDGET", "123456")
        code, doc = run(tmp_path, "graph-analyze", "--gen", "cycle:8")
        assert code == 0
        assert doc["config"]["budget_effective"] == 123456

    def test_cli_import_leaves_sympy_unloaded(self, tmp_path):
        # sympy is a test oracle only: no subcommand, coset enumeration included, loads it
        spec = write_spec(tmp_path, F2_SPEC)
        assert_commands_leave_unloaded(tmp_path, "sympy", [
            ["coupling-build", "--spec", spec],
            ["coupling-verify", "--spec", spec, "--radius", "2"],
            ["integrability", "--spec", spec],
            ["claim-check", "--spec", spec, "--lambda-radius", "2"],
        ])

    def test_algebra_commands_leave_numpy_unloaded(self, tmp_path):
        # only commands that build a distance matrix need numpy; threshold on a
        # tree ball (F2, Z) reads its thin-triangle constant off the graph alone
        spec = write_spec(tmp_path, F2_SPEC)
        assert_commands_leave_unloaded(tmp_path, "numpy", [
            ["group-ball", "--group", "F2", "--radius", "3"],
            ["coupling-build", "--spec", spec],
            ["coupling-verify", "--spec", spec, "--radius", "2"],
            ["integrability", "--spec", spec],
            ["claim-check", "--spec", spec, "--lambda-radius", "2"],
            ["conditions", "--group", "F2"],
            ["threshold", "--group", "F2"],
            ["threshold", "--group", "Z"],
        ])

    def test_tree_commands_leave_numpy_unloaded(self, tmp_path):
        # a tree's constants, diameter and cycle answer need no distance matrix
        assert_commands_leave_unloaded(tmp_path, "numpy", [
            ["graph-analyze", "--gen", "tree:1,5000"],
            ["graph-analyze", "--gen", "tree:3,5"],
            ["find-cycles", "--gen", "tree:1,5000", "--min-a", "1/2", "--min-n", "4"],
            ["find-cycles", "--gen", "tree:2,3", "--min-a", "0", "--min-n", "5"],
            ["find-cycles", "--gen", "tree:1,0", "--min-a", "0", "--min-n", "3"],
        ])

    def test_no_command_loads_mpmath(self, tmp_path):
        # mpmath is a test oracle only: certified brackets are computed in
        # integers, so neither the commands that take none (group-ball at
        # radius 1 has no entropy block) nor those that take ln, exp, power
        # and log2 brackets load it
        spec = write_spec(tmp_path, F2_SPEC)
        embedding = os.path.join(GOLDEN_INPUTS, "embedding.json")
        assert_commands_leave_unloaded(tmp_path, "mpmath", [
            ["graph-analyze", "--gen", "grid:9,9"],
            ["graph-analyze", "--gen", "grid:25,25", "--samples", "5"],
            ["find-cycles", "--gen", "grid:6,6", "--min-a", "1/2", "--min-n", "20"],
            ["group-ball", "--group", "F2", "--radius", "1", "--counts-only"],
            ["coupling-build", "--spec", spec],
            ["coupling-verify", "--spec", spec],
            ["claim-check", "--spec", spec],
            ["group-ball", "--group", "F2", "--radius", "3"],
            ["threshold", "--group", "F2"],
            ["conditions", "--group", "F2", "--psi", "exp_power:1"],
            ["check-obstruction", "--gen", "grid:4,4", "--embedding", embedding],
            ["integrability", "--spec", spec, "--phi", "exp_power:1", "--psi", "exp_power:1/2@3"],
            ["claim-check", "--spec", spec, "--phi", "power:1/2,exp_power:1"],
        ])

    def test_modules_run_on_first_use(self, tmp_path):
        # type() reads the class without touching the module; any attribute
        # access would execute it
        unused = ["cycles", "groups", "coupling", "rigidity", "integrability", "brackets"]
        out = str(tmp_path / "r.json")
        code = (
            "import json, sys, types\n"
            "import hypme.cli\n"
            f"exit_code = hypme.cli.dispatch(['graph-analyze', '--gen', 'grid:9,9', '--out', {out!r}])\n"
            f"unrun = [m for m in {unused!r} if type(sys.modules[f'hypme.{{m}}']) is not types.ModuleType]\n"
            "import hypme.graphs\n"
            "print(json.dumps([exit_code, unrun, hypme.graphs is sys.modules['hypme.graphs']]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(proc.stdout) == [0, unused, True]

    @pytest.mark.parametrize("argv, unrun, ran", [
        (["coupling-build", "--spec", "SPEC"], ["graphs", "integrability"], ["coupling", "groups"]),
        (["group-ball", "--group", "F2", "--radius", "2"], ["coupling", "integrability"], ["graphs", "groups"]),
        (["check-obstruction", "--embedding", "EMB", "--delta", "1"], ["graphs"], ["cycles"]),
        (["threshold", "--group", "F2"], ["integrability"], ["graphs", "rigidity"]),
    ], ids=["coupling-build", "group-ball", "check-obstruction-delta", "threshold"])
    def test_commands_execute_only_the_modules_they_call(self, tmp_path, argv, unrun, ran):
        # a module a command never calls may still be named in an annotation
        # or imported by one it calls; neither may execute it
        files = {name: os.path.join(GOLDEN_INPUTS, f) for name, f in
                 (("SPEC", "f2.json"), ("EMB", "embedding.json"))}
        argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / "r.json")]
        code = (
            "import json, sys, types\n"
            "import hypme.cli\n"
            f"exit_code = hypme.cli.dispatch({argv!r})\n"
            "ran = sorted(name[6:] for name, m in sys.modules.items()\n"
            "             if name.startswith('hypme.') and type(m) is types.ModuleType)\n"
            "print(json.dumps([exit_code, ran]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        exit_code, executed = json.loads(proc.stdout)
        assert exit_code == 0
        assert set(ran) <= set(executed) and not set(unrun) & set(executed), executed


class TestExitCodes:
    def test_b_identity_over_budget_is_exit_one(self, tmp_path, capsys):
        # radius 3 gives a 187-element lambda ball: 34,969 b-identity cases
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "3",
                        "--budget", "1000")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "needs 34969 cases" in err and "--budget or HYPME_BUDGET" in err

    def test_coupling_verify_over_budget_is_exit_one_fast(self, tmp_path, capsys):
        # radius 6 asks for 2 * 1457^2 = 4,245,698 cocycle cases (about a
        # minute) and 23437^2 b-identity cases: both refuse before the first
        spec = write_spec(tmp_path, F2_SPEC)
        start = time.perf_counter()
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "6",
                        "--budget", "100000")
        assert code == 1 and doc is None
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert "needs 549292969 cases" in err and "--budget or HYPME_BUDGET" in err

    def test_condition_5_volumes_over_budget_is_exit_one_fast(self, tmp_path, capsys):
        # a linear schedule reads Vol up to radius n_max = 10^6, about 10^10
        # 64-bit words of cached volumes (some 100 GB); 5,000 words stop it early
        start = time.perf_counter()
        code, doc = run(tmp_path, "conditions", "--group", "F2", "--check", "5", "--r", "pow:1",
                        "--budget", "5000")
        assert code == 1 and doc is None
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert "Vol up to radius 1000000, for --n-max 1000000" in err
        assert "volume words, over the budget of 5000" in err and "--budget or HYPME_BUDGET" in err

    def test_exp_bracket_over_budget_is_exit_one_fast(self, tmp_path, capsys):
        # exp(10**6 d) needs about 1.44 million working bits per bracket; the
        # charge comes before any of them is computed
        spec = write_spec(tmp_path, F2_SPEC)
        start = time.perf_counter()
        code, doc = run(tmp_path, "integrability", "--spec", spec, "--phi", "exp_power:1@1e6",
                        "--budget", "1000000")
        assert time.perf_counter() - start < 10
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "an exp bracket needs 1442824 bracket bits, over the budget of 1000000" in err
        assert "--budget or HYPME_BUDGET" in err

    def test_exp_bracket_beyond_any_budget_is_exit_one(self, tmp_path, capsys, monkeypatch):
        # exp(10**400) once overflowed a float while sizing its working precision
        monkeypatch.delenv("HYPME_BUDGET", raising=False)
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "integrability", "--spec", spec, "--phi", "exp_power:1@1e400")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "an exp bracket needs at least 2**1329 bracket bits, over the budget of 10000000" in err
        assert "Traceback" not in err

    def test_cocycle_identity_over_budget_is_exit_one(self, tmp_path, capsys):
        # Z^2 at radius 6: 7,225 b-identity cases fit, 2 * 85^2 = 14,450 cocycle cases do not
        spec = write_spec(tmp_path, Z2_SPEC)
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "6",
                        "--budget", "10000")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "cocycle identity check at radius 6 needs 14450 cases" in err
        assert "--budget or HYPME_BUDGET" in err

    def test_coupling_verify_charges_each_ball_once(self, tmp_path, capsys):
        # F2 at radius 3: coset enumeration defines the 2 cosets of the index-2
        # subgroup; B_lambda(3) has 187 elements and 187^2 = 34,969 b-identity
        # cases; B_gamma(3) has 53 and 2 * 53^2 = 5,618 cocycle cases; the
        # other checks read the same two balls and charge nothing
        spec = write_spec(tmp_path, F2_SPEC)
        assert run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "3",
                   "--budget", str(2 + 187 + 34969 + 53 + 5618))[0] == 0
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "3",
                        "--budget", str(2 + 187 + 34969 + 53 + 5618 - 1))
        assert code == 1
        assert "cocycle identity check at radius 3 needs 5618 cases" in capsys.readouterr().err

    def test_coupling_verify_negative_radius_is_exit_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "-1")
        assert code == 1 and doc is None
        assert "radius must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("radius, message", [
        ("1", "growth table must cover radius >= 2"),
        ("-1", "radius must be >= 0"),
    ])
    def test_threshold_small_ball_radius_is_exit_one(self, tmp_path, capsys, radius, message):
        code, doc = run(tmp_path, "threshold", "--group", "F2", "--ball-radius", radius)
        assert code == 1 and doc is None
        assert message in capsys.readouterr().err

    def test_threshold_refuses_a_ball_past_the_cap_before_its_bfs(self, tmp_path, capsys, monkeypatch):
        def fail_if_called(self, radius):
            raise AssertionError("the ball's BFS ran before the vertex cap")

        monkeypatch.setattr(groups.Spheres, "levels", fail_if_called)
        # Z^2 has 2r^2 + 2r + 1 elements within radius r
        code, doc = run(tmp_path, "threshold", "--group", "Z^2", "--ball-radius", "120")
        assert code == 1 and doc is None
        assert "graph has 29041 vertices, cap is 16384" in capsys.readouterr().err

    def test_tree_ball_past_the_cap_is_not_refused(self, tmp_path):
        # F2's ball of radius 9 has 39,365 elements, but a tree needs no distance matrix
        assert run(tmp_path, "threshold", "--group", "F2", "--ball-radius", "9")[0] == 0
        code, doc = run(tmp_path, "group-ball", "--group", "F2", "--radius", "9")
        assert code == 0 and doc["report"]["n"] == 39365

    def test_coset_enumeration_capped_below_general_budget(self, tmp_path, monkeypatch):
        # the general budget (10M by default) would let the enumerator define
        # millions of cosets for an infinite index that passes the rank check
        seen = []
        enumerate_cosets = coupling._build_coset_table

        def spy(group, words, cap):
            seen.append(cap)
            return enumerate_cosets(group, words, cap)

        monkeypatch.setattr(coupling, "_build_coset_table", spy)
        monkeypatch.delenv("HYPME_BUDGET", raising=False)
        spec = write_spec(tmp_path, F2_SPEC)
        assert run(tmp_path, "coupling-build", "--spec", spec)[0] == 0
        assert run(tmp_path, "coupling-build", "--spec", spec, "--budget", "500")[0] == 0
        assert seen == [coupling.DEFAULT_COSET_BUDGET, 500]

    def test_claim_check_schreier_ball_under_budget(self, tmp_path, capsys):
        # the sweep's Schreier BFS reaches 937 elements at lambda radius 4
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "claim-check", "--spec", spec, "--lambda-radius", "4",
                        "--budget", "500")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "group elements at radius 4" in err and "--budget or HYPME_BUDGET" in err

    def test_claim_check_charges_the_volumes_first(self, tmp_path, capsys):
        # C6 has 4 levels, so the sweep's gamma loop ends at once; Vol up to
        # radius 5000 is 5001 volumes of one word each
        spec = write_spec(tmp_path, {"group": "C6", "subgroup_generators": ["aa"]})
        code, doc = run(tmp_path, "claim-check", "--spec", spec, "--radii", "5000", "--budget", "1000")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "Vol(5000) needs 1 volume words" in err and "--budget or HYPME_BUDGET" in err
        code, doc = run(tmp_path, "claim-check", "--spec", spec, "--radii", "5000", "--budget", "6000")
        assert code == 0 and doc["report"]["passed"]

    def test_group_ball_charges_its_rows_first(self, tmp_path, capsys):
        # radius 10 is 11 rows of 50 words; C6's BFS then charges its 6 elements
        argv = ["group-ball", "--group", "C6", "--radius", "10", "--counts-only", "--budget"]
        code, doc = run(tmp_path, *argv, "549")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "the growth table and entropy block to radius 10 needs 550 report words" in err
        assert "with 0 already spent" in err
        assert run(tmp_path, *argv, "555")[0] == 1
        code, doc = run(tmp_path, *argv, "556")
        assert code == 0 and doc["report"]["growth"][-1] == 6

    @pytest.mark.parametrize("radius, exit_code", [(10**6, 1), (10**5, 0)])
    def test_group_ball_radius_at_the_default_budget(self, tmp_path, radius, exit_code):
        # uncharged, 10^6 rows took 7.6-10.5 s and 418 MB and wrote a 53 MB report
        out = tmp_path / "r.json"
        argv = ["group-ball", "--group", "C6", "--radius", str(radius), "--counts-only", "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("HYPME_BUDGET", None)
        proc = subprocess.run([sys.executable, "-m", "hypme.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == exit_code, proc.stderr
        if exit_code:
            assert not out.exists()
            assert f"entropy block to radius {radius} needs {50 * (radius + 1)} report words" in proc.stderr
        else:
            assert json.loads(out.read_text())["report"]["growth"][-1] == 6

    def test_infinite_index_names_the_coset_cap(self, tmp_path, capsys):
        # <a> in C2*C3 has infinite index, yet the abelianization has rank 0
        spec = write_spec(tmp_path, {"group": "C2*C3", "subgroup_generators": ["a"]})
        code, doc = run(tmp_path, "coupling-build", "--spec", spec, "--budget", "300")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "300 cosets" in err and "--budget or HYPME_BUDGET" in err

    def test_zero_budget_refuses_coset_enumeration(self, tmp_path, capsys):
        # a cap of 0 cosets admits not even the subgroup's own coset
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "coupling-build", "--spec", spec, "--budget", "0")
        assert code == 1 and doc is None
        err = capsys.readouterr().err
        assert "stopped at 0 cosets" in err and "--budget or HYPME_BUDGET" in err

    def test_usage_error(self, tmp_path):
        assert dispatch(["graph-analyze", "--gen", "blob:3",
                         "--out", str(tmp_path / "x.json")]) == 1

    def test_unknown_flag(self, tmp_path):
        assert dispatch(["graph-analyze", "--does-not-exist"]) == 1

    def test_math_violation_is_exit_two(self, tmp_path):
        emb = tmp_path / "emb.json"
        code, doc = run(tmp_path, "find-cycles", "--gen", "grid:9,9",
                        "--min-a", "1/2", "--min-n", "32")
        assert code == 0
        emb.write_text(json.dumps(doc["report"]["embedding"]))
        code2 = dispatch([
            "check-obstruction", "--embedding", str(emb), "--delta", "1/10",
            "--out", str(tmp_path / "obs.json"),
        ])
        assert code2 == 2
        rep = json.loads((tmp_path / "obs.json").read_text())["report"]
        assert rep["verdict"] == "violation"

    def test_failed_coupling_check_writes_the_report_and_exits_two(self, tmp_path, monkeypatch):
        # lambda acting on the left does not commute with the gamma action
        monkeypatch.setattr(
            coupling.Coupling, "lambda_act", lambda c, lam, w: c.group.multiply(c.group.inverse(lam), w)
        )
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "2")
        assert code == 2
        checks = {r["check"]: r for r in doc["report"]["checks"]}
        assert checks["actions_commute"]["violations"] > 0
        assert not checks["actions_commute"]["passed"]

    def test_certified_host_is_consistent(self, tmp_path):
        emb = tmp_path / "emb.json"
        code, doc = run(tmp_path, "find-cycles", "--gen", "grid:6,6",
                        "--min-a", "1/2", "--min-n", "20")
        assert code == 0
        emb.write_text(json.dumps(doc["report"]["embedding"]))
        code2 = dispatch([
            "check-obstruction", "--embedding", str(emb), "--gen", "grid:6,6",
            "--out", str(tmp_path / "obs.json"),
        ])
        assert code2 == 0
        rep = json.loads((tmp_path / "obs.json").read_text())["report"]
        assert rep["verdict"] == "consistent"
        assert rep["delta_source"] == "thin_triangle_plus_slack_2"

    @pytest.mark.parametrize("delta_args, delta", [
        (["--gen", "grid:3,3"], "4/1"), (["--delta", "1"], "1/1"),
    ], ids=["host", "supplied"])
    def test_upper_constant_two_gets_its_verdict(self, tmp_path, delta_args, delta):
        # the corners of grid:3,3 as a 4-cycle: b = 2, and delta >= 1; the
        # asymptotic form's inequality fails at n = 4, so it is not reported
        emb = tmp_path / "emb.json"
        emb.write_text('{"n": 4, "images": [0, 2, 8, 6], "a": "1/1", "b": "2/1"}')
        code, doc = run(tmp_path, "check-obstruction", "--embedding", str(emb), *delta_args)
        assert code == 0
        rep = doc["report"]
        assert (rep["delta"], rep["b"], rep["verdict"]) == (delta, "2/1", "consistent")
        assert rep["cor_applicable"] is False and rep["bound_cor"] is None

    def test_null_embedding_is_exit_one(self, tmp_path, capsys):
        # a failed search reports "embedding": null; checking it must not crash
        emb = tmp_path / "emb.json"
        emb.write_text("null")
        out = tmp_path / "obs.json"
        code = dispatch(["check-obstruction", "--embedding", str(emb),
                         "--gen", "grid:6,6", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: embedding must be a JSON object")

    @pytest.mark.parametrize("content, problem", [
        ("[0, 1, 2, 3]", "JSON object"),
        ('{"n": 4, "images": [0, 1, 7, 6], "a": "1/1"}', "lacks key(s) b"),
        ('{"images": [0, 1, 7, 6], "b": "1/1"}', "lacks key(s) n, a"),
        ('{"n": 6, "images": [0, 1, 7, 6], "a": "1/1", "b": "1/1"}', "n = 6 but it has 4 images"),
        ('{"n": 2, "images": [0, 1], "a": "1/1", "b": "1/1"}', "at least 3"),
        ('{"n": 3, "images": [0, 1, "x"], "a": "1/1", "b": "1/1"}', "list of vertex integers"),
        ('{"n": 4, "images": [0, 1, 7, 6], "a": "one", "b": "1/1"}', "not fractions"),
        ('{"n": 4, "images": [0, 1, 7, 6], "a": "1/1", "b": "1/1", "bb": "2/1"}', "unknown key(s) bb"),
        ("{", "not JSON"),
    ])
    @pytest.mark.parametrize("host", [["--delta", "1"], ["--gen", "grid:6,6"]])
    def test_malformed_embedding_is_parse_error(self, tmp_path, capsys, content, problem, host):
        emb = tmp_path / "emb.json"
        emb.write_text(content)
        out = tmp_path / "obs.json"
        code = dispatch(["check-obstruction", "--embedding", str(emb), *host, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: embedding") and problem in err

    @pytest.mark.parametrize("content, problem", [
        ("5", "must be a JSON object, got int"),
        ("not json", "is not JSON"),
        ('{"group": 7, "subgroup_generators": ["aa", "b", "abA"]}', "'group' must be"),
        ('{"group": "F2", "subgroup_generators": 5}', "'subgroup_generators' must be"),
        ('{"group": "F2", "subgroup_generators": "aab"}', "'subgroup_generators' must be"),
        ('{"group": "F2", "subgroup_generators": ["aa", "b", "abA"], "x_gamma": 3}', "'x_gamma' must be"),
        # a misspelled key would otherwise leave the base point at e
        ('{"group": "F2", "subgroup_generators": ["aa", "b", "abA"], "x_gama": "b"}', "unknown key(s) x_gama"),
        ('{"group": "F2"}', "lacks key(s) subgroup_generators"),
        ("[]", "must be a JSON object, got list"),
    ], ids=["number", "not-json", "group-number", "words-number", "words-string", "x-gamma-number",
            "unknown-key", "missing-key", "list"])
    def test_malformed_spec_is_parse_error(self, tmp_path, capsys, content, problem):
        spec = tmp_path / "spec.json"
        spec.write_text(content)
        out = tmp_path / "build.json"
        code = dispatch(["coupling-build", "--spec", str(spec), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: coupling spec") and problem in err

    def test_image_outside_host_is_parse_error(self, tmp_path, capsys):
        emb = tmp_path / "emb.json"
        emb.write_text('{"n": 4, "images": [0, 1, 7, 36], "a": "1/1", "b": "1/1"}')
        code = dispatch(["check-obstruction", "--embedding", str(emb), "--gen", "grid:6,6",
                         "--out", str(tmp_path / "obs.json")])
        assert code == 1
        assert "out of range for a host with 36 vertices" in capsys.readouterr().err

    def test_host_beside_delta_checks_the_image_range(self, tmp_path, capsys):
        # the golden embedding reaches vertex 14, which a 3-vertex host lacks
        out = tmp_path / "obs.json"
        code = dispatch(["check-obstruction", "--gen", "cycle:3", "--delta", "1/10",
                         "--embedding", os.path.join(GOLDEN_INPUTS, "embedding.json"),
                         "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "out of range for a host with 3 vertices" in capsys.readouterr().err

    def test_host_beside_delta_reverifies_the_embedding(self, tmp_path):
        # the file claims a = 1 for a loop whose host gives a = 1/2; the claim
        # alone would be a violation at delta 1/10
        with open(os.path.join(GOLDEN_INPUTS, "embedding.json")) as fh:
            claimed = {**json.load(fh), "a": "1/1"}
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps(claimed))
        code, doc = run(tmp_path, "check-obstruction", "--gen", "grid:4,4", "--embedding", str(emb),
                        "--delta", "1/10")
        assert code == 0
        rep = doc["report"]
        assert (rep["a"], rep["delta_source"], rep["verdict"]) == ("1/2", "supplied", "consistent")

    def test_malformed_delta_is_refused_before_the_apsp(self, tmp_path, capsys, monkeypatch):
        def fail_if_called(*args):
            raise AssertionError("the host's distance matrix was built before --delta was parsed")

        monkeypatch.setattr(graphs, "distance_matrix", fail_if_called)
        out = tmp_path / "obs.json"
        code = dispatch(["check-obstruction", "--gen", "grid:30,30", "--delta", "abc",
                         "--embedding", os.path.join(GOLDEN_INPUTS, "embedding.json"),
                         "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("argv", [
        ["find-cycles", "--gen", "grid:4,4", "--min-n", "4", "--min-a", "abc"],
        ["find-cycles", "--gen", "grid:4,4", "--min-n", "4", "--min-a", "1/0"],
        ["conditions", "--group", "F2", "--r", "log:x"],
        ["integrability", "--spec", "SPEC", "--phi", "power:x"],
        ["graph-analyze", "--gen", "grid:a,b"],
        ["graph-analyze", "--gen", "grid:4"],
        ["check-obstruction", "--embedding", "EMB", "--delta", "abc"],
        ["claim-check", "--spec", "SPEC", "--radii", "a"],
        ["HYPME_BUDGET=abc", "graph-analyze", "--gen", "cycle:4"],
        ["claim-check", "--spec", "SPEC", "--radii", "0"],
        ["claim-check", "--spec", "SPEC", "--radii", "-1"],
        ["conditions", "--group", "F2", "--check", "9"],
        ["group-ball", "--group", "F2", "--counts-only", "--radius", "-1"],
        ["claim-check", "--spec", "SPEC", "--lambda-radius", "-2"],
        ["graph-analyze", "--gen", "grid:25,25", "--samples", "-3"],
        ["conditions", "--group", "F2", "--r", "log:0"],
        ["conditions", "--group", "F2", "--r", "pow:2"],
        ["conditions", "--group", "F2", "--r", "pow:0"],
        ["conditions", "--group", "F2", "--L", "1/2"],
        ["conditions", "--group", "F2", "--delta", "-1"],
        ["conditions", "--group", "F2", "--n-min", "1"],
        ["conditions", "--group", "F2", "--n-min", "100", "--n-max", "10"],
    ], ids=["min-a-word", "min-a-zero-denominator", "schedule", "phi-param",
            "gen-params", "gen-arity", "delta", "radii-word", "env-budget",
            "radii-zero", "radii-negative", "unknown-condition", "counts-radius-negative",
            "lambda-radius-negative", "samples-negative", "log-coefficient-zero",
            "pow-exponent-two", "pow-exponent-zero", "L-below-one", "delta-negative",
            "n-min-one", "n-min-past-n-max"])
    def test_bad_flag_value_is_exit_one(self, tmp_path, capsys, monkeypatch, argv):
        argv = list(argv)
        while "=" in argv[0]:  # leading NAME=value items set the environment
            name, _, value = argv.pop(0).partition("=")
            monkeypatch.setenv(name, value)
        files = {"SPEC": write_spec(tmp_path, F2_SPEC), "EMB": str(tmp_path / "emb.json")}
        (tmp_path / "emb.json").write_text('{"n": 4, "images": [0, 1, 7, 6], "a": "1/1", "b": "1/1"}')
        out = tmp_path / "x.json"
        code = dispatch([files.get(a, a) for a in argv] + ["--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_report_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert dispatch(["group-ball", "--group", "F2", "--radius", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1 and "missing" in err

    def test_generated_host_over_vertex_cap_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert dispatch(["graph-analyze", "--gen", "grid:150,150", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: graph has 22500 vertices, cap is")

    def test_exact_scans_over_budget_exit_one(self, tmp_path, capsys):
        # the APSP BFS of grid:9,9 spends 17 levels of 3 cell blocks, the scans the rest
        out = tmp_path / "x.json"
        assert dispatch(["graph-analyze", "--gen", "grid:9,9", "--budget", "100", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: a thin-triangle row") and err.count("\n") == 1 and "--budget" in err

    @pytest.mark.parametrize("argv", [
        ["graph-analyze"],
        ["find-cycles", "--min-a", "1/2", "--min-n", "20"],
        ["check-obstruction", "--embedding", "EMB"],
    ], ids=["graph-analyze", "find-cycles", "check-obstruction"])
    def test_apsp_over_budget_refused_before_its_levels(self, tmp_path, capsys, monkeypatch, argv):
        # 8192 levels of 65,536 cell blocks: charged before the matrix is allocated
        def fail_if_called(*args):
            raise AssertionError("the APSP BFS ran before its budget charge")

        monkeypatch.setattr(graphs, "_row_blocks", fail_if_called)
        emb = tmp_path / "emb.json"
        emb.write_text('{"n": 3, "images": [0, 1, 2], "a": "1/1", "b": "1/1"}')
        out = tmp_path / "x.json"
        argv = [str(emb) if a == "EMB" else a for a in argv]
        assert dispatch([*argv, "--gen", "cycle:16384", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: the APSP BFS (at least 8192 levels) needs 536870912 cell blocks")

    def test_tree_hosts_build_no_distance_matrix(self, tmp_path, monkeypatch):
        # the APSP BFS of tree:1,5000 would need 30,870,000 cell blocks, over the default budget
        def fail_if_called(*args):
            raise AssertionError("a tree host built its distance matrix")

        monkeypatch.setattr(graphs, "distance_matrix", fail_if_called)
        code, doc = run(tmp_path, "graph-analyze", "--gen", "tree:1,5000")
        assert code == 0
        assert doc["report"]["diameter"] == 5000
        assert (doc["report"]["delta_thin"], doc["report"]["delta_four_point"]) == ("0/1", "0/1")
        code, doc = run(tmp_path, "find-cycles", "--gen", "tree:1,5000", "--min-a", "1/2", "--min-n", "4")
        assert (code, doc["report"]["outcome"]) == (0, "proven_absent")
        code, doc = run(tmp_path, "find-cycles", "--gen", "tree:1,0", "--min-a", "0", "--min-n", "3")
        assert (code, doc["report"]["outcome"], doc["report"]["embedding"]) == (0, "proven_absent", None)
        code, doc = run(tmp_path, "graph-analyze", "--gen", "tree:1,0")
        assert (code, doc["report"]["diameter"], doc["report"]["n"]) == (0, 0, 1)

    def test_sampled_path_over_budget_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        start = time.perf_counter()
        argv = ["graph-analyze", "--gen", "grid:30,30", "--samples", "100000", "--budget", "100000"]
        assert dispatch([*argv, "--out", str(out)]) == 1
        assert time.perf_counter() - start < 10
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--samples" in err and "--budget" in err


class TestForce:
    """graph-analyze samples past EXACT_CUTOFF (lowered to 10 here)."""

    @pytest.fixture(autouse=True)
    def low_cutoff(self, monkeypatch):
        monkeypatch.setattr(hyperbolicity, "EXACT_CUTOFF", 10)

    def test_force_is_not_a_flag(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert dispatch(["graph-analyze", "--gen", "cycle:12", "--force", "--out", str(out)]) == 1
        assert not out.exists() and "--force" in capsys.readouterr().err

    def test_without_force_samples(self, tmp_path):
        code, doc = run(tmp_path, "graph-analyze", "--gen", "cycle:12", "--samples", "20")
        assert code == 0
        assert doc["report"]["exact"] is False and doc["report"]["samples"] == 20


class TestSubcommands:
    def test_graph_analyze_examples(self, tmp_path):
        code, doc = run(tmp_path, "graph-analyze", "--gen", "cycle:4")
        assert code == 0
        assert doc["report"]["delta_thin"] == "1/1"
        assert doc["report"]["delta_four_point"] == "1/1"

    def test_edges_file_input(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        code, doc = run(tmp_path, "graph-analyze", "--edges", str(edges))
        assert code == 0 and doc["report"]["n"] == 3

    def test_find_cycles_grid(self, tmp_path):
        code, doc = run(tmp_path, "find-cycles", "--gen", "grid:9,9",
                        "--min-a", "1/2", "--min-n", "32")
        assert code == 0
        emb = doc["report"]["embedding"]
        assert emb["n"] == 32 and emb["a"] == "1/2" and emb["b"] == "1/1"

    def test_group_ball_with_csv(self, tmp_path):
        csv = tmp_path / "growth.csv"
        code, doc = run(tmp_path, "group-ball", "--group", "F2", "--radius", "3",
                        "--csv", str(csv))
        assert code == 0
        assert doc["report"]["growth"] == [1, 5, 17, 53]
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,vol" and lines[1] == "0,1" and lines[-1] == "3,53"

    @pytest.mark.parametrize("radius", [0, 1])
    def test_group_ball_below_radius_two_has_null_entropy(self, tmp_path, radius):
        # the entropy estimate starts at radius 2; both modes carry the key
        reports = {}
        for mode in ([], ["--counts-only"]):
            code, doc = run(tmp_path, "group-ball", "--group", "F2", "--radius", str(radius), *mode)
            assert code == 0 and doc["report"]["entropy"] is None
            reports[bool(mode)] = doc["report"]
        assert set(reports[False]) - set(reports[True]) == {"n", "edges", "word_lengths", "labels"}
        assert set(reports[True]) <= set(reports[False])

    def test_group_ball_counts_only(self, tmp_path):
        code, doc = run(tmp_path, "group-ball", "--group", "Z^2", "--radius", "4",
                        "--counts-only")
        assert code == 0
        assert doc["report"]["growth"] == [1, 5, 13, 25, 41]

    def test_coupling_build(self, tmp_path):
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "coupling-build", "--spec", spec)
        assert code == 0
        rep = doc["report"]
        assert rep["index"] == 2
        assert rep["transversal"] == ["e", "a"]
        assert rep["coboundedness_witness"] == ["e"]

    def test_coupling_verify(self, tmp_path):
        spec = write_spec(tmp_path, Z2_SPEC)
        code, doc = run(tmp_path, "coupling-verify", "--spec", spec, "--radius", "3")
        assert code == 0
        assert all(ch["passed"] for ch in doc["report"]["checks"])

    def test_integrability(self, tmp_path):
        spec = write_spec(tmp_path, F2_SPEC)
        code, doc = run(tmp_path, "integrability", "--spec", spec,
                        "--phi", "power:1", "--psi", "power:1")
        assert code == 0
        assert doc["report"]["exact"] is True

    def test_integrability_bracket_contains_true_value(self, tmp_path):
        # psi(t) = exp(8 t) on the golden F2 spec: L = psi(3) = e**24, whose
        # bracket once had both ends on one value below e**24
        spec = os.path.join(os.path.dirname(__file__), "golden", "inputs", "f2.json")
        code, doc = run(tmp_path, "integrability", "--spec", spec, "--psi", "exp_power:1@8")
        assert code == 0 and doc["report"]["exact"] is False
        lo, hi = (Fraction(x) for x in doc["report"]["L"])
        assert lo < hi
        with mpmath.workprec(2000):
            assert mpmath.mpf(lo.numerator) / lo.denominator <= mpmath.exp(24)
            assert mpmath.exp(24) <= mpmath.mpf(hi.numerator) / hi.denominator

    def test_claim_check(self, tmp_path):
        spec = write_spec(tmp_path, Z2_SPEC)
        code, doc = run(tmp_path, "claim-check", "--spec", spec,
                        "--lambda-radius", "3")
        assert code == 0
        assert doc["report"]["passed"] is True

    def test_claim_check_strengthens_first(self, tmp_path):
        # x_gamma = b lies outside X_lambda: the report is the pair oracle's
        # sweep on the coupling shifted by its witness B
        spec = os.path.join(os.path.dirname(__file__), "golden", "inputs", "f2b.json")
        code, doc = run(tmp_path, "claim-check", "--spec", spec, "--lambda-radius", "3")
        assert code == 0
        with open(spec) as fh:
            c = coupling.coupling_from_spec(fh.read())
        strengthened = coupling.strengthen_coboundedness(c)
        expected = brute_claim_sweep(strengthened, 3, [1, 2, 3], [power(1), power(2)])
        report = doc["report"]
        assert report.pop("coboundedness_witness") == ["B"]
        assert report == encode(expected)
        assert report["K"] == {"power(1/1)": "4/1", "power(2/1)": "10/1"}

    def test_threshold_f2(self, tmp_path):
        code, doc = run(tmp_path, "threshold", "--group", "F2")
        assert code == 0
        assert doc["report"]["p_threshold"] == "2/1"
        assert doc["report"]["delta"] == "0/1"

    def test_conditions(self, tmp_path):
        code, doc = run(tmp_path, "conditions", "--group", "F2", "--check", "7",
                        "--delta", "1", "--r", "log:300", "--n-max", "10000")
        assert code == 0
        conds = doc["report"]["conditions"]
        assert conds[0]["condition"] == "(7)"
        assert conds[0]["verdict"] == "holds_eventually"


# Each subcommand's parser actions, in order: option strings, dest, default,
# required, choices and the name of the type.  How the options are declared
# may change; what each command accepts, and its config echo, may not.
HELP = [(("-h", "--help"), "help", "==SUPPRESS==", False, None, None)]
HOST = [
    (("--gen",), "gen", None, False, None, None),
    (("--edges",), "edges", None, False, None, None),
    (("--largest-component",), "largest_component", False, False, None, None),
]
COMMON = [
    (("--out",), "out", None, True, None, None),
    (("--seed",), "seed", 0, False, None, "int"),
    (("--budget",), "budget", None, False, None, "int"),
]
SPEC = [(("--spec",), "spec", None, True, None, None)]
GROUP = [(("--group",), "group", None, True, None, None)]
PARSER_PIN = {
    "graph-analyze": HELP + HOST + COMMON + [
        (("--samples",), "samples", 100000, False, None, "int"),
    ],
    "find-cycles": HELP + HOST + COMMON + [
        (("--min-a",), "min_a", None, True, None, None),
        (("--min-n",), "min_n", None, True, None, "int"),
        (("--mode",), "mode", "auto", False, ["auto", "exhaustive", "heuristic"], None),
    ],
    "check-obstruction": HELP + HOST + COMMON + [
        (("--embedding",), "embedding", None, True, None, None),
        (("--delta",), "delta", None, False, None, None),
    ],
    "group-ball": HELP + COMMON + GROUP + [
        (("--radius",), "radius", None, True, None, "int"),
        (("--csv",), "csv", None, False, None, None),
        (("--counts-only",), "counts_only", False, False, None, None),
    ],
    "coupling-build": HELP + COMMON + SPEC,
    "coupling-verify": HELP + COMMON + SPEC + [
        (("--radius",), "radius", 3, False, None, "int"),
    ],
    "integrability": HELP + COMMON + SPEC + [
        (("--phi",), "phi", "power:1", False, None, None),
        (("--psi",), "psi", "power:1", False, None, None),
    ],
    "claim-check": HELP + COMMON + SPEC + [
        (("--lambda-radius",), "lambda_radius", 4, False, None, "int"),
        (("--radii",), "radii", "1,2,3", False, None, None),
        (("--phi",), "phi", "power:1,power:2", False, None, None),
    ],
    "threshold": HELP + COMMON + GROUP + [
        (("--ball-radius",), "ball_radius", 4, False, None, "int"),
    ],
    "conditions": HELP + COMMON + GROUP + [
        (("--check",), "check", "5,6,7", False, None, None),
        (("--delta",), "delta", "1", False, None, None),
        (("--L",), "L", "1", False, None, None),
        (("--phi",), "phi", "power:2", False, None, None),
        (("--psi",), "psi", "power:1", False, None, None),
        (("--r",), "r", "log:108", False, None, None),
        (("--n-min",), "n_min", 2, False, None, "int"),
        (("--n-max",), "n_max", 1000000, False, None, "int"),
    ],
}


def subparsers():
    """Each subcommand's name and parser, in declaration order."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestParser:
    def test_actions_are_pinned(self):
        actions = {
            name: [
                (tuple(a.option_strings), a.dest, a.default, a.required, a.choices,
                 getattr(a.type, "__name__", a.type))
                for a in p._actions
            ]
            for name, p in subparsers().items()
        }
        assert list(actions) == list(PARSER_PIN)
        for name, pinned in PARSER_PIN.items():
            assert actions[name] == pinned, name

    def test_each_command_binds_its_function_by_name(self):
        # perfbench/tracing.py finds each command as cmd_<name with - as _>
        for name, p in subparsers().items():
            assert p.get_default("func") is getattr(cli, "cmd_" + name.replace("-", "_")), name

    @pytest.mark.parametrize("argv", [
        ["graph-analyze"],
        ["find-cycles", "--min-a", "1/2", "--min-n", "4"],
        ["check-obstruction", "--embedding", os.path.join(GOLDEN_INPUTS, "embedding.json")],
    ])
    def test_gen_and_edges_together_are_refused(self, argv, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "x.json"
        both = ["--gen", "cycle:7", "--edges", str(edges), "--out", str(out)]
        assert dispatch(argv + both) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--gen" in err and "--edges" in err
