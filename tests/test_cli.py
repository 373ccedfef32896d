import json
import math

import pytest

from asep2.cli import default_dual_coordinates, default_initial_config, main, zscore
from asep2.measures import pure_marginal
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

    def test_default_desk_configuration(self, tmp_path):
        # default parameters (L=2, q=2, t in {0,1}, 1e5 trajectories):
        # the whole grid closes within three standard errors
        path = tmp_path / "sim.json"
        assert main(["simulate", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["trajectories"] == 100000
        assert sorted({r["t"] for r in payload["records"]}) == [0.0, 1.0]
        assert all(abs(r["zscore"]) <= 3.0 for r in payload["records"])

    def test_long_horizon_prediction(self, capsys):
        # the duality prediction needs exp(-H t) at t = 100 on every sector
        argv = ["simulate", "--L", "1", "--trajectories", "200", "--t", "100"]
        assert main(argv) in (0, 1)
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == len(default_dual_coordinates(1))

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

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L 1\n")
        assert main(["verify", "algebra", "--config", str(cfg)]) == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--L", "1", "--trajectories", "0"],
            ["simulate", "--L", "1", "--trajectories", "10", "--t", "-1"],
            ["measure", "canonical", "--L", "1", "--N", "5", "--M", "5"],
        ],
        ids=["zero-trajectories", "negative-time", "sector-out-of-range"],
    )
    def test_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["verify", "algebra", "--config", str(missing)]) == 2
        assert "usage error" in capsys.readouterr().err
