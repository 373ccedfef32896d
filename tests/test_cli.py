import errno
import io
import json
import math
from fractions import Fraction

import pytest

from asep2 import cli, dynamics, qsym
from asep2.cli import default_dual_coordinates, default_initial_config, main, zscore
from asep2.lattice import config_rows
from asep2.measures import Measure, pure_marginal
from asep2.generator import ModelParams


class TestVerify:
    def test_all_small_lattice(self, capsys):
        assert main(["verify", "all", "--L", "1"]) == 0
        out = capsys.readouterr().out
        assert "DH=HtD PASS" in out
        assert "FAIL" not in out

    def test_duality_l2_report(self, capsys):
        assert main(["verify", "duality", "--L", "2"]) == 0
        out = capsys.readouterr().out
        assert "L2:DH=HtD PASS" in out

    def test_invalid_lattice_size(self, capsys):
        assert main(["verify", "all", "--L", "0"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_relation_names_unique(self, capsys):
        # each relation is checked once per run, the size-free ones too
        assert main(["verify", "all", "--L", "3"]) == 0
        names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert len(names) == len(set(names))

    def test_resource_cap(self, capsys):
        assert main(["verify", "all", "--L", "7"]) == 2

    def test_conflicting_parameter_pairs(self):
        assert main(["verify", "algebra", "--L", "1", "--r", "2", "--q", "2"]) == 2

    def test_lambda_csv(self, tmp_path):
        path = tmp_path / "lambda.csv"
        assert main(["verify", "duality", "--L", "1", "--lambda-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "N,M,Nprime,Mprime,lambda_poly"
        assert "0,0,0,0,1*q^0" in lines


class TestMeasure:
    def test_partition_file(self, tmp_path):
        path = tmp_path / "partition.csv"
        assert main(["measure", "partition", "--L", "2", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "N,M,Z"
        assert len(lines) == 1 + 15  # all sectors with N+M <= 4

    def test_canonical_trivial_sector(self, capsys):
        assert main(["measure", "canonical", "--L", "1", "--N", "0", "--M", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["config,weight", "00,1*q^0"]

    def test_profile_matches_marginal(self, tmp_path):
        path = tmp_path / "profile.csv"
        assert (
            main(
                [
                    "measure", "profile", "--L", "2", "--species", "A",
                    "--nu", "0", "--out", str(path),
                ]
            )
            == 0
        )
        p = ModelParams.from_qw(2, 2)
        from asep2.lattice import A

        for line in path.read_text().splitlines()[1:]:
            site, density = line.split(",")
            assert float(density) == pytest.approx(
                pure_marginal(A, 0.0, p, int(site)), abs=1e-12
            )

    def test_grandcanonical_normalised(self, capsys):
        assert main(["measure", "grandcanonical", "--L", "1", "--nu", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        total = sum(float(line.split(",")[1]) for line in lines)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        args = [
            "simulate", "--L", "1", "--trajectories", "400",
            "--seed", "3", "--t", "0", "--t", "0.5",
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_time_rows_are_exact(self, tmp_path):
        path = tmp_path / "sim.json"
        assert (
            main(
                [
                    "simulate", "--L", "1", "--trajectories", "200",
                    "--seed", "3", "--t", "0", "--out", str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        for record in payload["records"]:
            assert record["zscore"] == 0.0
            assert record["stderr"] == 0.0
            assert record["mean"] == record["prediction"]

    def test_subnormal_time(self, capsys):
        # lam t is subnormal: every path is the identity, as at t = 0
        assert main(["simulate", "--L", "2", "--trajectories", "5", "--t", "5e-324"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert all(r["exact"] == r["prediction"] and r["zscore"] == 0.0 for r in records)

    def test_default_desk_configuration(self, tmp_path):
        # default parameters (L=2, q=2, t in {0,1}, 1e5 trajectories):
        # the whole grid closes within three standard errors
        path = tmp_path / "sim.json"
        assert main(["simulate", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["trajectories"] == 100000
        assert sorted({r["t"] for r in payload["records"]}) == [0.0, 1.0]
        assert all(abs(r["zscore"]) <= 3.0 for r in payload["records"])

    def test_largest_lattice(self, capsys, monkeypatch):
        # L = CODE_MAX_L: the start's sector (2,1) has dim 25,308, whose
        # dense kernel would need 5.1 GB; the series applied to vectors
        # needs a few megabytes, and no sector forms a dense kernel
        def never(*args, **kwargs):
            raise AssertionError("formed a dense kernel")

        monkeypatch.setattr(dynamics, "evolve", never)
        argv = ["simulate", "--L", "19", "--trajectories", "2000", "--t", "1"]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == len(default_dual_coordinates(19))
        assert all(r["exact"] == pytest.approx(r["prediction"], rel=1e-10) for r in records)

    def test_series_budget_before_sampling(self, monkeypatch, capsys):
        # 1 trajectory at t = 1000 is far inside the proposal bound, but
        # its exact law needs 5e9 term products: exit 2, nothing sampled
        def never(*args, **kwargs):
            raise AssertionError("sampled past the series budget")

        monkeypatch.setattr(dynamics, "estimate_Q_many", never)
        argv = ["simulate", "--L", "19", "--trajectories", "1", "--t", "1000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "term products" in captured.err
        assert cli.SIMULATE_MAX_SERIES < cli._series_work(
            ModelParams(19, Fraction(2), Fraction(1, 2)), [1000.0]
        )

    def test_dense_kernels_lift_the_series_budget(self, monkeypatch, capsys):
        # at L = 5 every default sector has at most dynamics.DENSE_MAX_DIM
        # rows: t = 9000 needs 1.3e9 term products as vector series, which
        # exit 2, and 9.5e6 as dense kernels; the sampled side is stubbed
        # (1.6e5 sampler steps would take over a second), the exact side
        # is not.  Its 1.6e5 steps are charged 9.1e7 of the proposal cap
        def stub(zs, p0, t, trajectories, seed, p):
            return [dynamics.QEstimate(0.0, 0.0, trajectories)] * len(zs)

        monkeypatch.setattr(dynamics, "estimate_Q_many", stub)
        p = ModelParams(5, Fraction(2), Fraction(1, 2))
        assert cli._series_work(p, [9000.0]) <= cli.SIMULATE_MAX_SERIES
        argv = ["simulate", "--L", "5", "--trajectories", "1", "--t", "9000"]
        assert main(argv) in (0, 1)
        records = json.loads(capsys.readouterr().out)["records"]
        assert all(r["exact"] == pytest.approx(r["prediction"], rel=1e-10) for r in records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--L", "2", "--trajectories", "10", "--t", "100000"],
            ["--L", "5", "--trajectories", "1", "--t", "10000"],
        ],
    )
    def test_longest_path_cap(self, argv, monkeypatch, capsys):
        # few proposals in all, but one block's longest path takes 6e5 and
        # 1.8e5 sampler steps (seconds of Python steps): exit 2, nothing
        # sampled
        def never(*args, **kwargs):
            raise AssertionError("sampled past the longest-path cap")

        monkeypatch.setattr(dynamics, "_final_blocks", never)
        assert main(["simulate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sampler steps at 560 proposals each" in captured.err

    def test_proposals_alone_over_the_cap(self, monkeypatch, capsys):
        # 2e8 start draws at t = 0 take no sampler step, and still exit 2
        # before any sampling
        def never(*args, **kwargs):
            raise AssertionError("sampled past the proposal cap")

        monkeypatch.setattr(dynamics, "_final_blocks", never)
        assert main(["simulate", "--L", "2", "--trajectories", "200000000", "--t", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: simulation is desk-scale: 2e+08 start draws and jump proposals "
            "and 0 sampler steps at 560 proposals each, need at most 1e+08\n"
        )

    def test_long_horizon_prediction(self, capsys):
        # the duality prediction needs exp(-H t) at t = 100 on every sector
        argv = ["simulate", "--L", "1", "--trajectories", "200", "--t", "100"]
        assert main(argv) in (0, 1)
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == len(default_dual_coordinates(1))

    def test_zero_hit_record_has_finite_z(self, capsys):
        # A000000B gets no hits in 1e4 trajectories (prediction ~9e-6); its
        # z-score divides by the exact-law sigma, not the empirical stderr of 0
        argv = ["simulate", "--L", "4", "--t", "4", "--trajectories", "10000", "--seed", "1"]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert all(math.isfinite(r["zscore"]) and r["sigma"] > 0.0 for r in records)
        assert all(r["exact"] == pytest.approx(r["prediction"], rel=1e-10) for r in records)

    def test_wrong_q_prediction_fails(self, monkeypatch, capsys):
        # negative control: sample at r=2, l=1/2, predict at r=3, l=1/2;
        # the exact-law sigma must not hide the disagreement
        wrong = ModelParams(2, Fraction(3), Fraction(1, 2))
        rhs = dynamics.duality_rhs
        monkeypatch.setattr(dynamics, "duality_rhs", lambda zs, p0, t, p: rhs(zs, p0, t, wrong))
        assert main(["simulate", "--L", "2", "--trajectories", "10000", "--t", "1"]) == 1
        records = json.loads(capsys.readouterr().out)["records"]
        assert max(abs(r["zscore"]) for r in records) > 5.0

    def test_exact_mean_disagreement_fails(self, monkeypatch, capsys):
        # a prediction off by 1e-8 relative moves no z-score past 5, but
        # breaks the float self-duality check against the exact mean
        rhs = dynamics.duality_rhs
        monkeypatch.setattr(
            dynamics,
            "duality_rhs",
            lambda zs, p0, t, p: [v * (1 + 1e-8) for v in rhs(zs, p0, t, p)],
        )
        assert main(["simulate", "--L", "1", "--trajectories", "200", "--t", "1"]) == 1
        records = json.loads(capsys.readouterr().out)["records"]
        assert max(abs(r["zscore"]) for r in records) <= 5.0

    @pytest.mark.parametrize(
        "r, ell",
        [
            ("2", "1/2"), ("7/10", "3/10"), ("1", "1"),
            ("1/3", "3"), ("100", "1"), ("1/1000", "1000"),
        ],
    )
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_cap_edge_self_duality(self, L, r, ell, capsys):
        # at the longest single horizon the proposal, step and series caps
        # accept for one trajectory, the exact means and the duality
        # predictions of the default sectors agree within EXACT_RTOL
        p = ModelParams(L, Fraction(r), Fraction(ell))
        rate = (2 * L - 1) * float(max(p.r, p.ell))
        t = (cli.SIMULATE_MAX_PROPOSALS - 1) / (rate * (1 + cli.STEP_PROPOSALS))
        # one start draw, rate t proposals and rate t steps
        while (1 + rate * t) + cli.STEP_PROPOSALS * (rate * t) > cli.SIMULATE_MAX_PROPOSALS:
            t = math.nextafter(t, 0.0)
        # the step charge binds: the series cap accepts t, and a horizon
        # 0.1% longer exits 2
        assert cli._series_work(p, [t]) <= cli.SIMULATE_MAX_SERIES
        argv = ["simulate", "--L", str(L), "--r", r, "--ell", ell, "--trajectories", "1"]
        assert main([*argv, "--t", repr(t * 1.001)]) == 2
        assert "sampler steps" in capsys.readouterr().err
        zs = default_dual_coordinates(L)
        p0 = Measure.point_mass(default_initial_config(L))
        exact = dynamics.q_moments(config_rows(zs), *dynamics.law_at(p0, t, p), p.q0)[0]
        for a, b in zip(exact.tolist(), dynamics.duality_rhs(zs, p0, t, p)):
            assert math.isclose(a, b, rel_tol=cli.EXACT_RTOL, abs_tol=cli.EXACT_ATOL), (a, b)

    def test_zscore_edge_cases(self):
        assert zscore(1.0, 0.0, 1.0) == 0.0
        assert math.isinf(zscore(1.0, 0.0, 2.0))
        assert zscore(1.5, 0.5, 1.0) == pytest.approx(1.0)

    def test_default_grid_shapes(self):
        zs = default_dual_coordinates(2)
        assert len(zs) == 5
        assert {(z.N, z.M) for z in zs} == {(1, 0), (0, 1), (1, 1)}
        eta = default_initial_config(2)
        assert eta.N >= 1 and eta.M >= 1


class TestDumps:
    def test_generator_sector(self, capsys):
        assert main(["dump-generator", "--L", "2", "--N", "1", "--M", "1"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "12 sector 2 1 1 2 1/2"

    def test_generator_requires_full_sector_spec(self):
        assert main(["dump-generator", "--L", "2", "--N", "1"]) == 2

    def test_generator_cap(self):
        assert main(["dump-generator", "--L", "5", "--ring", "exact"]) == 2

    def test_symmetry_sections(self, tmp_path):
        path = tmp_path / "sym.txt"
        assert main(["dump-symmetry", "--L", "1", "--out", str(path)]) == 0
        text = path.read_text()
        for name in ("Y1+", "Y1-", "Y2+", "Y2-", "L1", "L2", "L3"):
            assert f"operator {name}\n" in text


class TestConfigFile:
    def test_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 1\nq = 2\nseed = 9  # fixed stream\n")
        assert main(["verify", "reversibility", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "L1:detailed-balance PASS" in out
        assert "L2:" not in out
        # a flag overrides the file value
        assert main(["verify", "reversibility", "--config", str(cfg), "--L", "2"]) == 0
        out = capsys.readouterr().out
        assert "L2:detailed-balance PASS" in out

    def test_flag_times_override_file_times(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 0,1\ntrajectories = 50\n")
        argv = ["simulate", "--L", "1", "--config", str(cfg)]
        assert main(argv) == 0
        assert {r["t"] for r in json.loads(capsys.readouterr().out)["records"]} == {0.0, 1.0}
        assert main(argv + ["--t", "0.5"]) == 0
        assert {r["t"] for r in json.loads(capsys.readouterr().out)["records"]} == {0.5}

    def test_comma_times_equal_repeated_flags(self, capsys):
        argv = ["simulate", "--L", "1", "--trajectories", "50", "--seed", "4"]
        assert main(argv + ["--t", "0,1"]) == 0
        comma = capsys.readouterr().out
        assert main(argv + ["--t", "0", "--t", "1"]) == 0
        assert comma == capsys.readouterr().out

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L 1\n")
        assert main(["verify", "algebra", "--config", str(cfg)]) == 2


# q = 1e12: the float measures' q-powers at L = 6 pass 1.8e308
HUGE_Q = ["--r", "1000000000000", "--ell", "1/1000000000000"]

# config files that test_exit_2 reads as "{tmp}/<name>.cfg"
CONFIG_FILES = {
    "t": "t = abc\n",
    "r": "r = 1/0\n",
    "species": "species = C\n",
    "ring": "ring = x\n",
    "typo": "trajectores = 10\n",
    "nu": "nu = nan\n",
    "abbrev": "traj = 10\n",
    "nested": "config = other.cfg\n",
}


class TestUsageErrors:
    # "{tmp}" stands for a fresh directory holding the config files below
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--L", "1", "--trajectories", "0"],
            ["simulate", "--L", "1", "--trajectories", "10", "--t", "-1"],
            ["simulate", "--L", "1", "--trajectories", "10", "--t", "nan"],
            ["measure", "canonical", "--L", "1", "--N", "5", "--M", "5"],
            ["simulate", "--L", "1", "--trajectories", "10", "--config", "{tmp}/t.cfg"],
            ["verify", "algebra", "--L", "1", "--config", "{tmp}/r.cfg"],
            ["measure", "pure", "--L", "1", "--config", "{tmp}/species.cfg"],
            ["dump-generator", "--L", "1", "--config", "{tmp}/ring.cfg"],
            ["simulate", "--L", "1", "--config", "{tmp}/typo.cfg"],
            ["measure", "grandcanonical", "--L", "1", "--config", "{tmp}/nu.cfg"],
            ["simulate", "--L", "1", "--config", "{tmp}/abbrev.cfg"],
            ["verify", "algebra", "--L", "1", "--config", "{tmp}/nested.cfg"],
            ["measure", "pure", "--L", "1", "--species", "C"],
            ["measure", "canonical", "--L", "8", "--N", "4", "--M", "4"],
            ["dump-generator", "--L", "8", "--N", "4", "--M", "4", "--ring", "float"],
            ["dump-generator", "--L", "20", "--N", "1", "--M", "1"],
            ["measure", "canonical", "--L", "25", "--N", "1", "--M", "0"],
            ["verify", "reversibility", "--L", "1", "--out", "{tmp}/missing/report.txt"],
            ["verify", "duality", "--L", "1", "--lambda-out", "{tmp}/missing/lambda.csv"],
            ["measure", "partition", "--L", "1", "--out", "{tmp}/missing/partition.csv"],
            ["measure", "pure", "--L", "1", "--nu", "nan"],
            ["measure", "pure", "--L", "1", "--nu", "inf"],
            ["measure", "pure", "--L", "1", "--nu=-inf"],
            ["measure", "grandcanonical", "--L", "1", "--mu", "nan"],
            ["measure", "profile", "--q", "1"],
            ["measure", "grandcanonical", "--L", "7"],
            ["measure", "pure", "--L", "7"],
            ["simulate", "--L", "1", "--trajectories", "2", "--t", "1e308"],
            ["simulate", "--L", "2", "--trajectories", "1000000", "--t", "100"],
            ["simulate", "--L", "2", "--t", "0", "--trajectories", "1000000000000"],
            ["simulate", "--L", "1", "--trajectories", "10", "--seed", "-1"],
            ["simulate", "--L", "1", "--trajectories", "10", "--t", "0", "--t", "1",
             "--seed", str(2**63 - 1)],
            ["simulate", "--L", "20", "--trajectories", "10"],
            ["simulate", "--L", "1", "--traj", "3", "--t", "0"],
            ["verify", "duality", "--L", "1", "--lam", "{tmp}/lambda.csv"],
            ["dump-generator", "--L", "1", "--ri", "float"],
            ["measure", "grandcanonical", "--L", "6", *HUGE_Q],
            ["measure", "pure", "--L", "6", *HUGE_Q],
            ["measure", "canonical", "--L", "6", "--N", "3", "--M", "3", "--ring", "float",
             *HUGE_Q],
            ["measure", "canonical", "--L", "19", "--N", "2", "--M", "0", "--ring", "float",
             "--r", "1000000", "--ell", "1/1000000"],
            ["measure", "canonical", "--L", "4", "--N", "4", "--M", "4", "--ring", "float",
             "--r", "1e30", "--ell", "1e-30", "--out", "{tmp}/canonical.csv"],
        ],
        ids=[
            "zero-trajectories", "negative-time", "nan-time", "sector-out-of-range",
            "config-value-not-a-number", "config-zero-denominator",
            "config-species", "config-ring", "config-unknown-key", "config-nu-nan",
            "config-abbreviated-key", "config-nested", "species-flag",
            "canonical-sector-too-large", "dump-sector-too-large",
            "dump-sector-past-code-max-l", "canonical-sector-past-code-max-l",
            "out-dir-missing", "lambda-out-dir-missing", "measure-out-dir-missing",
            "nu-nan", "nu-inf", "nu-minus-inf", "mu-nan", "profile-q-one",
            "grandcanonical-lattice-too-large", "pure-lattice-too-large",
            "huge-time", "proposals-over-budget", "start-draws-over-budget", "negative-seed",
            "seed-key-overflow", "row-code-overflow", "abbreviated-flag",
            "abbreviated-command-flag", "abbreviated-choice-flag",
            "grandcanonical-q-power-overflow", "pure-q-power-overflow",
            "canonical-q-power-overflow", "canonical-q-power-overflow-l19",
            "canonical-q-power-overflow-out",
        ],
    )
    def test_exit_2(self, argv, tmp_path, capsys):
        for name, text in CONFIG_FILES.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "canonical.csv").exists()

    @pytest.mark.parametrize("flag", ["--nu", "--mu"])
    def test_negative_exponent_notation(self, flag, capsys):
        argv = ["measure", "grandcanonical", "--L", "1"]
        assert main(argv + [flag, "-1e3"]) == 0
        spaced = capsys.readouterr().out
        assert main(argv + [f"{flag}=-1e3"]) == 0
        assert spaced == capsys.readouterr().out != ""

    def test_zero_denominator_flag(self, capsys):
        # a bad flag value is one usage-error line, not argparse's usage block
        assert main(["verify", "algebra", "--L", "1", "--r", "1/0"]) == 2
        err = capsys.readouterr().err
        assert err == "usage error: argument --r: invalid rational value: '1/0'\n"

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["verify", "algebra", "--config", str(missing)]) == 2
        assert "usage error" in capsys.readouterr().err


class TestInternalErrors:
    def _assert_exit_3(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_raising_suite(self, monkeypatch, capsys):
        def broken(L):
            raise RuntimeError("broken\nsuite")

        monkeypatch.setattr(qsym, "check_conjugation_lemma", broken)
        self._assert_exit_3(["verify", "lemmas", "--L", "1"], capsys)

    def test_write_fails_after_open(self, monkeypatch, tmp_path, capsys):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda path, mode: FullDisk(), raising=False)
        argv = ["measure", "partition", "--L", "1", "--out", str(tmp_path / "z.csv")]
        self._assert_exit_3(argv, capsys)
