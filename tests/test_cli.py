import json
import math

import pytest

from clinterp import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


class TestDecompose:
    def test_power_half_q16(self, capsys):
        code, rep = run_cli(capsys, ["decompose", "power:0.5", "--q", "16", "--depth", "8"])
        assert code == 0
        assert rep["totals"]["failed"] == 0
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["marching-recurrence"]["values"]["worst_rel_err"] <= 1e-9
        assert byname["two-sided-sum-bound"]["values"]["max_ratio"] <= 17.0 / 15.0
        assert rep["config"]["q_prime"] == pytest.approx(4.0)

    def test_csv_side_file(self, capsys, tmp_path):
        path = tmp_path / "nodes.csv"
        code, _ = run_cli(
            capsys,
            ["decompose", "power:0.5", "--q", "4", "--depth", "3", "--csv", str(path)],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,phi1,envelope,node"
        assert any(row.endswith(",1") for row in lines[1:])  # node markers present

    def test_min_function_endpoints(self, capsys):
        code, rep = run_cli(capsys, ["decompose", "min", "--q", "4"])
        assert code == 0
        assert rep["config"]["bottom_kind"] == "endpoint"
        assert rep["config"]["top_kind"] == "endpoint"


class TestNorm:
    def test_lattice(self, capsys):
        code, rep = run_cli(capsys, ["norm", "lattice", "--space", "lp:2:3", "--x", "1,2,2"])
        assert code == 0
        assert rep["config"]["value"] == pytest.approx(3.0)

    def test_sum_witness_recomposes(self, capsys):
        code, rep = run_cli(capsys, ["norm", "sum", "--couple", "lp:1:2|linf:2", "--x", "3,1"])
        assert code == 0
        assert rep["config"]["value"] == pytest.approx(3.0)
        assert all(c["pass"] for c in rep["checks"])

    def test_inter(self, capsys):
        code, rep = run_cli(capsys, ["norm", "inter", "--couple", "lp:1:2|linf:2", "--x", "1,2"])
        assert code == 0
        assert rep["config"]["value"] == pytest.approx(3.0)

    def test_cl_bracket_contains_root_two(self, capsys):
        code, rep = run_cli(
            capsys,
            ["norm", "cl", "--couple", "lp:1:2|linf:2", "--phi", "power:0.5", "--x", "1,1"],
        )
        assert code == 0
        lo, hi = rep["config"]["value"]
        assert lo <= math.sqrt(2.0) * (1 + 1e-9)
        assert hi >= math.sqrt(2.0) * (1 - 1e-9)
        names = [c["name"] for c in rep["checks"]]
        assert "witness-replay" in names

    def test_missing_space_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, ["norm", "lattice", "--x", "1,2"])
        assert code == 1


class TestSplitAndRho:
    def test_split_with_equivalence(self, capsys):
        code, rep = run_cli(
            capsys,
            ["split", "--phi", "affinepower:1,1,0.5", "--couple", "lp:1:2|linf:2",
             "--samples", "4"],
        )
        assert code == 0
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["recompose-on-grid"]["values"]["worst_rel_err"] <= 1e-12
        assert byname["two-sided-factor"]["pass"]

    def test_rho_positive_bracket(self, capsys):
        code, rep = run_cli(
            capsys,
            ["rho", "--matrix", "1,2;3,4", "--domain", "lp:1:2", "--codomain", "lp:1:2",
             "--p", "inf", "--q", "1"],
        )
        assert code == 0
        est = rep["config"]["estimate"]
        assert est["lower"] == pytest.approx(6.0)
        assert est["upper"] == pytest.approx(6.0)

    def test_rho_rejects_sup_sup(self, capsys):
        code, _ = run_cli(
            capsys,
            ["rho", "--matrix", "1,0;0,1", "--domain", "lp:1:2", "--codomain", "lp:1:2",
             "--p", "inf", "--q", "inf"],
        )
        assert code == 1


class TestKconstAndLconvex:
    def test_kconst_growth_for_submeasure_family(self, capsys):
        code, rep = run_cli(capsys, ["kconst", "--space", "sub:0.5:4", "--samples", "30"])
        assert code == 0
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["certified-growth"]["values"]["lower"] >= 4.0 * (1 - 1e-9)

    def test_lconvex_banach_finds_nothing(self, capsys):
        code, rep = run_cli(
            capsys, ["lconvex", "--space", "lp:1:4", "--eps", "0.3", "--samples", "100"]
        )
        assert code == 0
        assert rep["config"]["report"]["found"] is False

    def test_lconvex_submeasure_certificate(self, capsys):
        code, rep = run_cli(
            capsys, ["lconvex", "--space", "sub:0.5:4", "--eps", "0.3", "--samples", "20"]
        )
        assert code == 0
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["structured-family"]["pass"]
        assert rep["config"]["report"]["found"] is True


class TestVerify:
    def test_sumreg(self, capsys):
        code, rep = run_cli(
            capsys,
            ["verify", "sumreg", "--matrix", "1,2;3,4", "--couple", "lp:1:2|linf:2",
             "--samples", "50"],
        )
        assert code == 0
        assert rep["totals"]["failed"] == 0

    def test_interp(self, capsys):
        code, rep = run_cli(
            capsys,
            ["verify", "interp", "--matrix", "1,2;3,4", "--couple", "lp:1:2|linf:2",
             "--phi", "power:0.5", "--samples", "40"],
        )
        assert code == 0
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["proof-constant"]["pass"]
        assert byname["restricted-resample"]["pass"]

    def test_factorize_roundtrip(self, capsys):
        code, rep = run_cli(
            capsys,
            ["verify", "factorize", "--couple", "lp:1:2|linf:2", "--phi", "power:0.5",
             "--samples", "10"],
        )
        assert code == 0
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["identity-roundtrip"]["values"]["worst_rel_err"] <= 1e-12

    def test_factorize_rejects_doubly_bounded(self, capsys):
        code, rep = run_cli(
            capsys,
            ["verify", "factorize", "--couple", "lp:1:2|linf:2", "--phi", "min"],
        )
        assert code == 0
        assert rep["checks"][0]["name"] == "bounded-both-sides-rejected"
        assert rep["checks"][0]["pass"]

    def test_approx_tail_decays(self, capsys):
        code, rep = run_cli(
            capsys,
            ["verify", "approx", "--couple", "lp:1:2|linf:2", "--phi", "power:0.5",
             "--q", "4", "--depth", "6", "--samples", "3"],
        )
        assert code == 0
        a_m = rep["config"]["a_m"]
        assert all(a_m[i + 1] <= a_m[i] for i in range(len(a_m) - 1))
        assert a_m[-1] < 1e-2

    def test_failed_check_exits_two(self, capsys):
        # a negative tolerance shrinks the asserted bound below the observed
        # quotients, forcing violations: the report path, not an error path
        code, rep = run_cli(
            capsys,
            ["verify", "sumreg", "--matrix", "1,2;3,4", "--couple", "lp:1:2|linf:2",
             "--samples", "20", "--tol", "-0.99"],
        )
        assert code == 2
        assert rep["totals"]["failed"] >= 1


class TestSampleCounts:
    @pytest.mark.parametrize("argv", [
        ["kconst", "--space", "lp:1:3"],
        ["lconvex", "--space", "lp:0.5:8", "--eps", "0.75"],
        ["verify", "sumreg", "--matrix", "1,2;3,4", "--couple", "lp:1:2|linf:2"],
        ["verify", "interp", "--matrix", "1,2;3,4", "--couple", "lp:1:2|linf:2",
         "--phi", "power:0.5"],
        ["verify", "factorize", "--couple", "lp:1:2|linf:2", "--phi", "power:0.5"],
        ["verify", "approx", "--couple", "lp:1:2|linf:2", "--phi", "power:0.5", "--q", "4"],
        ["split", "--phi", "affinepower:1,1,0.5", "--couple", "lp:1:2|linf:2"],
        ["rho", "--matrix", "1,2;3,4", "--domain", "lp:1:2", "--codomain", "lp:2:2",
         "--p", "inf", "--q", "1"],
    ])
    def test_samples_below_one_is_an_error(self, capsys, argv):
        code = cli.main(argv + ["--samples", "0"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and "at least" in err


class TestPathology:
    def test_certificate_example(self, capsys):
        code, rep = run_cli(capsys, ["pathology", "certificate", "--n", "2", "--p", "0.5"])
        assert code == 0
        assert rep["config"]["constant_lower"] == pytest.approx(2.0)

    def test_submeasure_rank_brute(self, capsys):
        code, rep = run_cli(
            capsys, ["pathology", "submeasure", "--set", "bu:3:[1,0,0];[0,1,0]"]
        )
        assert code == 0
        assert rep["config"]["value"] == "2/3"
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["rank-vs-cover"]["pass"]

    def test_lpnorm_full_sphere(self, capsys):
        code, rep = run_cli(
            capsys,
            ["pathology", "lpnorm", "--n", "2", "--p", "0.5", "--layers", "1.0@full:2"],
        )
        assert code == 0
        assert rep["config"]["value"] == pytest.approx(1.0)


class TestDriver:
    def test_usage_error_exit_one(self, capsys):
        assert cli.main(["nonsense"]) == 1
        assert cli.main(["rho", "--matrix", "1,2;3,4"]) == 1

    def test_help_exit_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, rep = run_cli(
            capsys,
            ["norm", "lattice", "--space", "lp:1:2", "--x", "1,1", "--out", str(path)],
        )
        assert code == 0
        assert json.loads(path.read_text()) == rep

    def test_reports_deterministic_modulo_clock(self, capsys):
        argv = ["verify", "interp", "--matrix", "1,2;3,4", "--couple", "lp:1:2|linf:2",
                "--phi", "power:0.5", "--samples", "25", "--seed", "11"]
        _, a = run_cli(capsys, argv)
        _, b = run_cli(capsys, argv)
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert a == b

    def test_parallel_checks_identical(self, capsys):
        base = ["decompose", "power:0.25", "--q", "4", "--depth", "6", "--seed", "3"]
        _, a = run_cli(capsys, base + ["--workers", "1"])
        _, b = run_cli(capsys, base + ["--workers", "4"])
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert a == b
