"""Command-line parsing, serialization, and artifact tests."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from charged_extensions import cli_io
from charged_extensions import collar as co
from charged_extensions import lambda_rn as rn
from charged_extensions import sphere_seed as ss
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    ExtensionError,
    InternalConsistencyError,
    PreconditionError,
    VerificationError,
)


@pytest.fixture(scope="module")
def extend_artifacts(tmp_path_factory):
    """One extend run shared by the artifact content tests."""
    root = tmp_path_factory.mktemp("extend")
    report = root / "report.json"
    profile = root / "profile.csv"
    prefix = root / "run"
    rc = cli_io.main(
        [
            "extend",
            "--n",
            "2",
            "--r-o",
            "1.0",
            "--mass",
            "0.55",
            "--out",
            str(report),
            "--profile-out",
            str(profile),
            "--plot-prefix",
            str(prefix),
        ]
    )
    assert rc == 0
    return {"root": root, "report": report, "profile": profile, "prefix": prefix}


class TestParseConfig:
    def test_defaults_fill_unset_options(self):
        config = cli_io.parse_config(["classify", "--n", "2", "--m", "1.0"])
        assert config.command == "classify"
        assert config.options["q"] == 0.0
        assert config.options["lambda"] == 0.0
        assert config.options["out"] is None

    def test_every_option_is_present_after_resolution(self):
        config = cli_io.parse_config(
            ["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.6"]
        )
        for key in (
            "n",
            "q",
            "lambda",
            "r_o",
            "seed_cos",
            "seed_csv",
            "mass",
            "n_t",
            "n_theta",
            "theta_switch",
            "kappa_margin",
            "epsilon_cap",
            "mass_fraction",
            "mass_gap_tol",
            "witness_floor",
            "tolerance_scale",
            "seed",
            "out",
            "profile_out",
            "plot_prefix",
        ):
            assert key in config.options

    def test_missing_required_option_is_a_usage_error(self):
        with pytest.raises(cli_io.UsageError, match="'mass'"):
            cli_io.parse_config(["extend", "--n", "2", "--r-o", "1.0"])

    def test_flag_beats_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "r_o": 1.0, "mass": 0.6, "n_t": 257}')
        config = cli_io.parse_config(
            ["extend", "--config", str(path), "--n-t", "129"]
        )
        assert config.options["n_t"] == 129

    def test_config_file_beats_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "r_o": 1.0, "mass": 0.6, "n_t": 257}')
        config = cli_io.parse_config(["extend", "--config", str(path)])
        assert config.options["n_t"] == 257
        assert config.options["n_theta"] == 1025

    def test_environment_beats_config_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "r_o": 1.0, "mass": 0.6, "mass_gap_tol": 1e-6}')
        monkeypatch.setenv("CHARGED_EXTENSIONS_MASS_GAP_TOL", "1e-5")
        config = cli_io.parse_config(["extend", "--config", str(path)])
        assert config.options["mass_gap_tol"] == 1e-5

    def test_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("CHARGED_EXTENSIONS_TOLERANCE_SCALE", "5.0")
        config = cli_io.parse_config(
            ["selftest", "--tolerance-scale", "2.0"]
        )
        assert config.options["tolerance_scale"] == 2.0

    def test_environment_only_overrides_tolerance_options(self, monkeypatch):
        monkeypatch.setenv("CHARGED_EXTENSIONS_N_T", "99")
        config = cli_io.parse_config(["selftest"])
        assert config.options["n_t"] == 513

    def test_unknown_config_key_names_the_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "bogus_key": 1}')
        with pytest.raises(cli_io.UsageError, match="bogus_key"):
            cli_io.parse_config(["classify", "--config", str(path), "--m", "1.0"])

    def test_type_mismatch_in_file_names_the_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "m": "heavy"}')
        with pytest.raises(cli_io.UsageError, match="'m'"):
            cli_io.parse_config(["classify", "--config", str(path)])

    def test_boolean_is_not_an_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": true, "m": 1.0}')
        with pytest.raises(cli_io.UsageError, match="'n'"):
            cli_io.parse_config(["classify", "--config", str(path)])

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(cli_io.UsageError, match="malformed"):
            cli_io.parse_config(["classify", "--config", str(path), "--n", "2", "--m", "1"])

    def test_config_file_must_be_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(cli_io.UsageError, match="flat JSON object"):
            cli_io.parse_config(["classify", "--config", str(path), "--n", "2", "--m", "1"])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(cli_io.UsageError, match="cannot read"):
            cli_io.parse_config(
                ["classify", "--config", str(tmp_path / "absent.json"), "--n", "2", "--m", "1"]
            )

    def test_positive_lambda_is_rejected(self):
        with pytest.raises(cli_io.UsageError, match="lambda"):
            cli_io.parse_config(
                ["classify", "--n", "2", "--m", "1.0", "--lambda", "0.5"]
            )

    def test_positive_lambda_in_file_is_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "m": 1.0, "lambda": 0.25}')
        with pytest.raises(cli_io.UsageError, match="lambda"):
            cli_io.parse_config(["classify", "--config", str(path)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--n", "2", "--m", "1.25", "--q", "0.75"],
            ["extend", "--n", "3", "--r-o", "1.5", "--mass", "2.0", "--n-t", "129"],
            ["collar", "--n", "2", "--seed-cos", "0.15", "--epsilon", "0.0625"],
            ["selftest", "--criteria", "1,2", "--tolerance-scale", "2.0"],
            ["glue", "--n", "2", "--m", "1.0", "--mass", "1.2", "--radius", "3.5"],
        ],
    )
    def test_serialize_round_trip(self, tmp_path, argv):
        config = cli_io.parse_config(argv)
        path = tmp_path / "cfg.json"
        path.write_text(cli_io.serialize_config(config))
        again = cli_io.parse_config([argv[0], "--config", str(path)])
        assert again == config


class TestFormatting:
    def test_fmt17_round_trips_random_floats(self):
        rng = np.random.default_rng(11)
        for value in rng.uniform(-1e6, 1e6, size=200):
            assert float(cli_io.fmt17(value)) == value

    def test_fmt17_rejects_non_finite(self):
        with pytest.raises(DomainError):
            cli_io.fmt17(math.inf)
        with pytest.raises(DomainError):
            cli_io.fmt17(math.nan)

    def test_json_emitter_sorts_keys_and_handles_numpy(self):
        payload = {
            "b": np.float64(0.1),
            "a": np.int64(3),
            "c": np.bool_(True),
            "d": np.array([1.0, 2.0]),
            "e": None,
            "f": {"y": 1, "x": [True, "s"]},
        }
        text = cli_io._json_text(payload)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        parsed = json.loads(text)
        assert parsed["b"] == 0.1
        assert parsed["a"] == 3
        assert parsed["c"] is True
        assert parsed["d"] == [1.0, 2.0]
        assert parsed["e"] is None
        assert parsed["f"] == {"y": 1, "x": [True, "s"]}

    def test_json_emitter_rejects_unserializable_values(self):
        with pytest.raises(DomainError):
            cli_io._json_text({"x": object()})


class TestCsvSerialization:
    def test_profile_csv_header_and_rows(self):
        profile = rn.rn_profile(rn.RNParams(n=2, m=1.0, q=0.0, lam=0.0), 2.0, 9)
        text = cli_io.profile_csv(profile)
        lines = text.splitlines()
        assert lines[0] == "s,f,df,d2f,provenance"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 2.0
        assert first[4] == "analytic"

    def test_profile_csv_margin_column(self):
        profile = rn.rn_profile(rn.RNParams(n=2, m=1.0, q=0.0, lam=0.0), 2.0, 9)
        margins = np.linspace(0.5, 1.0, 9)
        text = cli_io.profile_csv(profile, margins)
        lines = text.splitlines()
        assert lines[0] == "s,f,df,d2f,provenance,margin"
        assert float(lines[1].split(",")[5]) == 0.5

    def test_hawking_and_grid_csv(self):
        path = ss.round_path(2, 1.0, n_t=65, theta_switch=0.75)
        spec = co.CollarSpec(
            path=path,
            epsilon=0.05,
            A=2.0 * co.find_A0(path, 0.05, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0),
            kappa=0.95,
            case_id=co.CONSTANT_LAPSE,
            q=0.0,
            lam=0.0,
            r_o=1.0,
        )
        built = co.build_collar(spec)
        hawking = cli_io.hawking_csv(built.hawking)
        lines = hawking.splitlines()
        assert lines[0] == "t,mass,dmass_dt,charge"
        assert len(lines) == 66
        assert float(lines[1].split(",")[1]) == 0.5

        grid = cli_io.collar_grid_csv(built)
        lines = grid.splitlines()
        assert lines[0] == "t,theta,R,dec_margin"
        assert len(lines) == 66
        assert float(lines[1].split(",")[1]) == 0.0


class TestClassifyCommand:
    def test_classify_stdout_payload(self, capsys):
        rc = cli_io.main(
            ["classify", "--n", "2", "--m", "1.25", "--q", "0.75", "--lambda", "0"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["kind"] == "SubExtremal"
        assert payload["r_plus"] == 2.25
        assert payload["r_minus"] == 0.25
        assert payload["config"]["command"] == "classify"

    def test_classify_super_extremal_has_null_roots(self, capsys):
        rc = cli_io.main(["classify", "--n", "2", "--m", "1.0", "--q", "2.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "SuperExtremal"
        assert payload["r_plus"] is None
        assert payload["r_minus"] is None


class TestRnProfileCommand:
    def test_profile_file_output(self, tmp_path):
        out = tmp_path / "profile.csv"
        rc = cli_io.main(
            [
                "rn-profile",
                "--n",
                "2",
                "--m",
                "1.0",
                "--s-max",
                "2.0",
                "--samples",
                "33",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,f,df,d2f,provenance"
        assert len(lines) == 34
        s_values = [float(line.split(",")[0]) for line in lines[1:]]
        assert s_values == sorted(s_values)
        assert float(lines[1].split(",")[1]) == 2.0


class TestCollarCommand:
    def test_round_collar_artifacts(self, tmp_path, capsys):
        grid_out = tmp_path / "grid.csv"
        hawking_out = tmp_path / "hawking.csv"
        rc = cli_io.main(
            [
                "collar",
                "--n",
                "2",
                "--r-o",
                "1.0",
                "--epsilon",
                "0.05",
                "--grid-out",
                str(grid_out),
                "--hawking-out",
                str(hawking_out),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["route"] == "positive-scalar"
        assert payload["mass_start"] == 0.5
        assert payload["mass_end"] > payload["mass_start"]
        assert payload["min_margin"] > 0.0

        grid_lines = grid_out.read_text().splitlines()
        assert grid_lines[0] == "t,theta,R,dec_margin"
        assert len(grid_lines) == 514
        hawking_lines = hawking_out.read_text().splitlines()
        assert hawking_lines[0] == "t,mass,dmass_dt,charge"
        assert len(hawking_lines) == 514

    def test_axisymmetric_seed_flag(self, capsys):
        rc = cli_io.main(
            [
                "collar",
                "--n",
                "2",
                "--seed-cos",
                "0.15",
                "--epsilon",
                "0.05",
                "--n-t",
                "65",
                "--n-theta",
                "257",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r_o"] > 1.0
        assert payload["mass_end"] > payload["mass_start"]

    def test_seed_csv_ingestion(self, tmp_path, capsys):
        seed = tmp_path / "seed.csv"
        thetas = np.linspace(0.0, math.pi, 41)
        rows = ["theta,w"]
        rows.extend(
            f"{float(t)!r},{float(0.1 * math.cos(t))!r}" for t in thetas
        )
        seed.write_text("\n".join(rows) + "\n")
        rc = cli_io.main(
            [
                "collar",
                "--n",
                "2",
                "--seed-csv",
                str(seed),
                "--epsilon",
                "0.05",
                "--n-t",
                "65",
                "--n-theta",
                "257",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r_o"] > 1.0

    def test_seed_csv_bad_header_is_a_usage_error(self, tmp_path, capsys):
        seed = tmp_path / "seed.csv"
        seed.write_text("angle,value\n0.0,0.1\n")
        rc = cli_io.main(["collar", "--n", "2", "--seed-csv", str(seed)])
        assert rc == 2
        assert "theta,w" in capsys.readouterr().err

    def test_undersized_amplitude_is_a_construction_failure(self, capsys):
        rc = cli_io.main(
            [
                "collar",
                "--n",
                "2",
                "--r-o",
                "1.0",
                "--epsilon",
                "0.05",
                "--amplitude",
                "0.05",
            ]
        )
        assert rc == 3
        assert "ConstructionError" in capsys.readouterr().err


class TestGlueCommand:
    def test_glued_profile_and_record(self, tmp_path):
        out = tmp_path / "glued.csv"
        record_out = tmp_path / "record.json"
        rc = cli_io.main(
            [
                "glue",
                "--n",
                "2",
                "--m",
                "1.0",
                "--mass",
                "1.2",
                "--out",
                str(out),
                "--record-out",
                str(record_out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,f,df,d2f,provenance,margin"
        tags = {line.split(",")[4] for line in lines[1:]}
        assert "bent" in tags and "mollified" in tags and "ode" in tags

        record = json.loads(record_out.read_text())
        assert record["record"]["m_e"] == 1.2
        assert record["record"]["q_e"] == 0.0
        assert record["truncation_radius"] == 3.0
        assert 0.9 < record["base_far_mass"] < 1.0

    def test_super_extremal_base_is_rejected(self, capsys):
        rc = cli_io.main(
            ["glue", "--n", "2", "--m", "1.0", "--q", "2.0", "--mass", "1.2"]
        )
        assert rc == 2
        assert "sub-extremal" in capsys.readouterr().err

    def test_radius_below_horizon_is_rejected(self, capsys):
        rc = cli_io.main(
            ["glue", "--n", "2", "--m", "1.0", "--mass", "1.2", "--radius", "1.5"]
        )
        assert rc == 2
        assert "horizon" in capsys.readouterr().err


class TestExtendCommand:
    def test_report_payload(self, extend_artifacts):
        payload = json.loads(extend_artifacts["report"].read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["command"] == "extend"
        assert payload["m_o"] == 0.5
        assert abs(payload["achieved_mass"] - 0.55) <= 1e-8
        assert payload["penrose_slack"] > 0.0
        assert payload["extremality"] == "SubExtremal"
        assert payload["outward_minimizing"] == "pass"
        assert payload["min_margin"] > 0.0
        assert payload["record"]["m_e"] == payload["achieved_mass"]
        assert payload["diagnostics"]["route"] == "positive-scalar"
        assert payload["pipeline_config"]["n_t"] == 513

    def test_profile_csv_matches_report_sample_count(self, extend_artifacts):
        payload = json.loads(extend_artifacts["report"].read_text())
        lines = extend_artifacts["profile"].read_text().splitlines()
        assert lines[0] == "s,f,df,d2f,provenance,margin"
        assert len(lines) == payload["diagnostics"]["samples"] + 1
        margins_by_tag = {}
        for line in lines[1:]:
            cells = line.split(",")
            margins_by_tag.setdefault(cells[4], []).append(float(cells[5]))
        assert min(margins_by_tag["collar"]) > 0.0
        assert min(margins_by_tag["mollified"]) > 0.0

    def test_plot_data_files(self, extend_artifacts):
        payload = json.loads(extend_artifacts["report"].read_text())
        prefix = str(extend_artifacts["prefix"])
        profile_lines = Path(prefix + ".profile.dat").read_text().splitlines()
        hawking_lines = Path(prefix + ".hawking.dat").read_text().splitlines()
        margin_lines = Path(prefix + ".margin.dat").read_text().splitlines()
        assert profile_lines[0] == "# s f"
        assert hawking_lines[0] == "# t mass"
        assert margin_lines[0] == "# s margin"
        assert len(profile_lines) == payload["diagnostics"]["samples"] + 1
        assert len(hawking_lines) == 514
        masses = [float(line.split()[1]) for line in hawking_lines[1:]]
        assert masses[-1] > masses[0]
        for line in profile_lines[1:]:
            assert len(line.split()) == 2

    def test_no_temp_files_left_behind(self, extend_artifacts):
        leftovers = list(extend_artifacts["root"].glob("*.tmp"))
        assert leftovers == []

    def test_mass_below_optimal_exits_with_precondition_code(self, capsys):
        rc = cli_io.main(["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "PreconditionError" in err
        assert "optimal mass" in err

    def test_missing_required_flag_exits_with_usage_code(self, capsys):
        rc = cli_io.main(["extend", "--n", "2", "--r-o", "1.0"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        profile = tmp_path / "profile.csv"
        argv = [
            "extend",
            "--n",
            "2",
            "--r-o",
            "1.0",
            "--mass",
            "0.55",
            "--n-t",
            "129",
            "--out",
            str(out),
            "--profile-out",
            str(profile),
        ]
        assert cli_io.main(argv) == 0
        first = (out.read_bytes(), profile.read_bytes())
        assert cli_io.main(argv) == 0
        second = (out.read_bytes(), profile.read_bytes())
        assert first == second


class TestBartnikCommand:
    def test_report_artifact(self, tmp_path):
        out = tmp_path / "bartnik.json"
        rc = cli_io.main(
            [
                "bartnik",
                "--n",
                "2",
                "--r-o",
                "1.0",
                "--witness-floor",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["upper_bound"] == 0.5
        assert payload["witnessed"] is True
        assert payload["horizon_matches_boundary"] is True
        assert [w["mass"] for w in payload["witnesses"]] == [0.75]
        assert payload["witnesses"][0]["succeeded"] is True


class TestSelftestCommand:
    def test_single_criterion_pass(self, tmp_path, capsys):
        out = tmp_path / "ledger.json"
        rc = cli_io.main(["selftest", "--criteria", "1", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("[C1] PASS")
        payload = json.loads(out.read_text())
        assert payload["result"]["passed"] is True
        assert payload["result"]["entries"][0]["criterion"] == 1
        assert payload["config"]["command"] == "selftest"

    def test_malformed_criteria_is_a_usage_error(self, capsys):
        rc = cli_io.main(["selftest", "--criteria", "1,x"])
        assert rc == 2
        assert "criteria" in capsys.readouterr().err

    def test_environment_override_reaches_the_ledger(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("CHARGED_EXTENSIONS_TOLERANCE_SCALE", "2.5")
        out = tmp_path / "ledger.json"
        rc = cli_io.main(["selftest", "--criteria", "4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["tolerance_scale"] == 2.5
        assert payload["result"]["config"]["tolerance_scale"] == 2.5


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (PreconditionError("x"), 2),
            (DomainError("x"), 2),
            (ConstructionError("x"), 3),
            (VerificationError("x"), 4),
            (InternalConsistencyError("x"), 4),
            (ExtensionError("x"), 3),
        ],
    )
    def test_mapping(self, exc, code):
        assert exc.exit_code == code

    def test_unwritable_output_path_is_an_io_failure(self, tmp_path, capsys):
        rc = cli_io.main(
            [
                "classify",
                "--n",
                "2",
                "--m",
                "1.0",
                "--out",
                str(tmp_path / "absent" / "out.json"),
            ]
        )
        assert rc == 1
        assert "i/o error" in capsys.readouterr().err
