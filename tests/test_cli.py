import json

import numpy as np
import pytest

from pottsglass.cli import (
    _COMMANDS,
    _default_cascade_arrays,
    _equal_split_path,
    build_named_path,
    main,
    render_report,
)
from pottsglass.core import MonotonePath, StateDistribution
from pottsglass.functional import _gh_grid
from pottsglass.util import ValidationError


class TestDefaultCascadeArrays:
    def test_trace_ladder(self):
        # meet depth p carries gamma_p: the same replica gets diag(d), a pair
        # meeting at depth 1 gets diag(d)/2 (trace 0.5), depth 0 gets 0
        arrays = _default_cascade_arrays(2, [0.3, 0.6], 20, 6, 10, seed=3)
        for arr in arrays:
            for a in range(arr.n):
                np.testing.assert_array_equal(arr.blocks[a, a], np.diag([0.5, 0.5]))
        _, traces = zip(*(arr.off_diagonal_blocks() for arr in arrays))
        assert set(np.concatenate(traces)) <= {0.0, 0.5, 1.0}
        assert 0.5 in np.concatenate(traces)


class TestPathHelpers:
    def test_named_uniform(self):
        p = build_named_path("uniform-r1", 2, x0=0.4)
        assert p.r == 1 and p.inner_x[0] == 0.4

    def test_json_file(self, tmp_path):
        p = MonotonePath.one_step(StateDistribution.uniform(3), 0.3)
        f = tmp_path / "path.json"
        f.write_text(json.dumps(p.to_json_dict()))
        again = build_named_path(str(f), 3)
        np.testing.assert_array_equal(p.gammas, again.gammas)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            build_named_path("nope", 2)

    def test_equal_split(self):
        p = _equal_split_path(2, [0.3, 0.6])
        assert p.r == 2
        np.testing.assert_allclose(p.gammas[1], np.diag([0.25, 0.25]))


class TestMainExitCodes:
    def test_eval_parisi_ok(self, capsys):
        assert main(["eval-parisi", "--kappa", "2", "--beta", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(np.log(2), abs=1e-9)

    def test_validation_error_is_2(self, capsys):
        assert main(["eval-parisi", "--path", "missing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, capsys):
        assert main(["eval-parisi", "--config", "/no/such/file.json"]) == 2

    def test_budget_error_is_3(self, capsys):
        code = main(["free-energy", "--N", "20", "--kappa", "3", "--beta", "0",
                     "--samples", "2"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [["--nodes", "99999"], ["--kappa", "1", "--nodes", "99999"],
         ["--kappa", "3", "--nodes", "101"]],
        ids=["nodes", "nodes-rank-1", "nodes-cubed"],
    )
    def test_quadrature_budget_is_3_before_any_grid(self, argv, monkeypatch, capsys):
        # hermgauss(99999) would build an 80 GB companion matrix
        def refuse(n):
            raise AssertionError(f"hermgauss({n}) called")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        _gh_grid.cache_clear()
        assert main(["eval-parisi", *argv]) == 3
        assert "error:" in capsys.readouterr().err
        _gh_grid.cache_clear()


class TestConfigMerge:
    def test_flags_win_over_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"beta": 2.0, "kappa": 2}, "seed": 9}))
        assert main(["eval-parisi", "--config", str(cfg), "--beta", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["beta"] == 0.0
        assert report["value"] == pytest.approx(np.log(2), abs=1e-9)

    def test_file_values_used_when_no_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"beta": 0.0, "kappa": 3}}))
        assert main(["eval-parisi", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(np.log(3), abs=1e-9)


class TestOutputFormats:
    def test_csv_free_energy(self, capsys):
        code = main(["free-energy", "--N", "3", "--kappa", "2", "--beta", "0",
                     "--samples", "2", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "N,kappa,beta,d,estimate,se,method"
        assert "enumeration" in out[1]

    def test_csv_scalar_fallback(self):
        text = render_report({"a": 1.5, "b": "x", "nested": {"c": 1}}, fmt="csv")
        assert text.splitlines()[0] == "key,value"

    def test_out_file_deterministic_across_threads(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["free-energy", "--N", "4", "--kappa", "2", "--beta", "0.5",
                "--samples", "16", "--seed", "3"]
        assert main(args + ["--threads", "1", "--out", str(f1)]) == 0
        assert main(args + ["--threads", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_mcmc_bytes_do_not_depend_on_threads(self, capsys):
        args = ["free-energy", "--method", "mcmc", "--N", "6", "--kappa", "3", "--beta", "0.8",
                "--samples", "3", "--seed", "5"]
        reports = []
        for threads in ("1", "2"):
            assert main(args + ["--threads", threads]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cascade-verify", "--reps", "4", "--atoms", "20", "--mass-samples", "10"],
            ["diag-gg", "--arrays", "10", "--atoms", "20"],
            ["diag-sync", "--arrays", "10", "--atoms", "20"],
        ],
        ids=["cascade-verify", "diag-gg", "diag-sync"],
    )
    def test_cascade_bytes_do_not_depend_on_threads(self, argv, capsys):
        reports = []
        for threads in ("1", "2"):
            assert main(argv + ["--threads", threads]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_json_sorted_keys(self, capsys):
        assert main(["eval-parisi", "--kappa", "2", "--beta", "0"]) == 0
        out = capsys.readouterr().out
        keys = list(json.loads(out))
        assert keys == sorted(keys)


class TestSubcommandSmoke:
    def test_cascade_verify(self, capsys):
        code = main(["cascade-verify", "--kappa", "2", "--x", "0.3,0.6",
                     "--beta", "0.5", "--reps", "20", "--atoms", "40",
                     "--mass-samples", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "passed" in report and "coincidence" in report

    def test_ass_check(self, capsys):
        code = main(["ass-check", "--N", "3", "--M", "1", "--kappa", "2",
                     "--draws", "2000"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["N"] == 3

    def test_diag_legendre_beta_zero(self, capsys):
        code = main(["diag-legendre", "--kappa", "2", "--beta", "0",
                     "--M", "2,4", "--reps", "2", "--atoms", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dual"] == pytest.approx(np.log(2), abs=1e-12)

    def test_diag_interp_beta_zero(self, capsys):
        code = main(["diag-interp", "--kappa", "2", "--N", "4", "--beta", "0",
                     "--reps", "3", "--atoms", "20", "--t", "0,0.5,1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["estimates"], np.log(6) / 4, atol=1e-12)


def write_config(tmp_path, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params}))
    return str(cfg)


KAPPA2_PATH = "<a kappa = 2 path file>"


class TestBoundCheck:
    def test_upper_value_is_at_an_n_type(self, capsys):
        # 5 sites: the uniform d of the old default mesh 8 is not a 5-type
        n = 5
        assert main(["bound-check", "--N", str(n), "--beta", "0.5", "--samples", "2",
                     "--M", "4", "--reps", "2", "--atoms", "10"]) == 0
        counts = n * np.array(json.loads(capsys.readouterr().out)["upper_d"])
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-12)

    def test_grid_mesh_is_not_a_flag(self, capsys):
        assert main(["bound-check", "--grid-mesh", "2"]) == 2


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["free-energy", "--N", "abc"],
            ["eval-parisi", "--kappa", "two"],
            ["cascade-verify", "--seed", "-1"],
            ["free-energy", "--N", "4", "--kappa", "3", "--d", "0.5,0.5"],
            ["free-energy", "--method", "mcmc", "--kappa", "2", "--d", "0.25,0.25,0.5"],
            ["free-energy", "--method", "gibbs"],
            ["eval-parisi", "--samples", "3"],
            ["eval-parisi", "--kappa", "0"],
            ["cascade-verify", "--kappa", "0"],
            ["eval-parisi", "--kappa", "-1"],
            ["optimize", "--kappa", "0"],
            ["ass-check", "--kappa", "0"],
            ["ass-check", "--N", "0"],
            ["ass-check", "--M", "-1"],
            ["diag-sync", "--bins", "0"],
            ["diag-gg", "--n", "0"],
            ["eval-parisi", "--kappa", "3", "--path", KAPPA2_PATH],
            ["free-energy", "--kappa", "0", "--N", "3"],
            ["eval-parisi", "--beta", "nan"],
            ["diag-interp", "--t", "0,nan"],
            ["free-energy", "--N", "3", "--samples", "2", "--threads", "0"],
            ["free-energy", "--N", "3", "--samples", "2", "--threads", "-1"],
            ["free-energy", "--N", "3", "--samples", "2", "--beta", "-1"],
            ["cascade-verify", "--reps", "4", "--atoms", "20", "--beta", "-1"],
            ["diag-interp", "--reps", "4", "--atoms", "20", "--beta", "-1"],
            ["optimize", "--nonneg-gamma"],
        ],
        ids=["int", "kappa", "seed", "d-short", "d-long", "method", "unread-flag",
             "eval-kappa-0", "cascade-kappa-0", "eval-kappa-negative", "optimize-kappa-0",
             "ass-kappa-0", "ass-N-0", "ass-M-negative", "bins-0", "gg-n-0", "path-kappa",
             "free-energy-kappa-0", "beta-nan", "t-nan", "threads-0", "threads-negative",
             "free-energy-beta-negative", "cascade-beta-negative", "interp-beta-negative",
             "nonneg-gamma"],
    )
    def test_flags_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(MonotonePath.one_step(StateDistribution.uniform(2), 0.5).to_json_dict()))
        argv = [str(path) if a == KAPPA2_PATH else a for a in argv]
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,params",
        [
            ("free-energy", {"N": "x"}),
            ("eval-parisi", {"samples": 3}),
            ("eval-parisi", {"d": [0.5, "half"]}),
        ],
        ids=["int", "unknown", "list"],
    )
    def test_config_params_exit_2(self, command, params, tmp_path, capsys):
        assert main([command, "--config", write_config(tmp_path, params)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_seed_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3}))
        assert main(["eval-parisi", "--config", str(cfg)]) == 2


class TestFlagTables:
    def test_each_subcommand_accepts_only_what_it_reads(self):
        assert len(_COMMANDS) == 10
        assert sum(len(table) for _, table in _COMMANDS.values()) == 69

    def test_help_lists_the_table(self, capsys):
        assert main(["diag-sync", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--bins" in out and "--seed" in out and "--samples" not in out

    def test_config_casts_like_flags(self, tmp_path, capsys):
        params = {"kappa": "3", "beta": "0", "d": [0.5, 0.25, 0.25], "lambda": "0.1,0.2"}
        assert main(["eval-parisi", "--config", write_config(tmp_path, params)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa"] == 3 and report["lambda"] == [0.1, 0.2]
        # beta = 0: log sum_k e^{lambda_k} minus lambda . d
        expected = np.log(np.exp(0.1) + np.exp(0.2) + 1.0) - (0.1 * 0.5 + 0.2 * 0.25)
        assert report["value"] == pytest.approx(expected, abs=1e-9)
