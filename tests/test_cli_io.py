"""Command-line parsing, serialization, and artifact tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charged_extensions import cli_io, numutil
from charged_extensions import collar as co
from charged_extensions import lambda_rn as rn
from charged_extensions import pipeline as pl
from charged_extensions import sphere_seed as ss
from charged_extensions.errors import (
    ConstructionError,
    DomainError,
    ExtensionError,
    InternalConsistencyError,
    PreconditionError,
    VerificationError,
)

from artifact_cases import CASES, _cos_seed_csv, compare_trees


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
        assert set(config.options) == {
            "n",
            "q",
            "lambda",
            "r_o",
            "seed_cos",
            "seed_csv",
            "mass",
            "n_t",
            "n_theta",
            "witness_floor",
            "out",
            "profile_out",
            "plot_prefix",
        }

    def test_pipeline_defaults_are_pipeline_config_defaults(self):
        config = cli_io.parse_config(["selftest"])
        defaults = pl.PipelineConfig().as_dict()
        assert {key: config.options[key] for key in defaults} == defaults

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

    def test_environment_is_not_an_option_source(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "r_o": 1.0, "mass": 0.6, "witness_floor": 4}')
        monkeypatch.setenv("CHARGED_EXTENSIONS_WITNESS_FLOOR", "5")
        monkeypatch.setenv("CHARGED_EXTENSIONS_N_T", "99")
        monkeypatch.setenv("CHARGED_EXTENSIONS_N_THETA", "65")
        config = cli_io.parse_config(["extend", "--config", str(path)])
        assert config.options["witness_floor"] == 4
        assert config.options["n_t"] == 513
        assert config.options["n_theta"] == 1025

    def test_mass_gap_tol_is_no_longer_an_option(self, tmp_path, capsys):
        # The collar's far mass sits 0.1 (m - m_o) below m by construction.
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 2, "r_o": 1.0, "mass": 0.6, "mass_gap_tol": 1e-6}')
        with pytest.raises(cli_io.UsageError, match="mass_gap_tol"):
            cli_io.parse_config(["extend", "--config", str(path)])
        with pytest.raises(SystemExit):
            cli_io.parse_config(["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.6",
                                 "--mass-gap-tol", "1e-6"])
        assert "--mass-gap-tol" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["extend", "bartnik", "selftest", "collar"])
    @pytest.mark.parametrize(
        "flag", ["--tolerance-scale=0.5", "--seed=7", "--theta-switch=0.5"]
    )
    def test_retired_pipeline_flags_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_io.parse_config([command, flag])
        assert exc.value.code == 2
        assert flag.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", [["--witness", "3"], ["--mass-gap", "1e-6"]])
    def test_flag_prefixes_are_rejected(self, prefix, capsys):
        # Only full names parse: --witness-floor and --mass-gap-tol.
        rc = cli_io.main(["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.6"] + prefix)
        assert rc == 2
        assert "unrecognized arguments: " + " ".join(prefix) in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert cli_io.main(["extend", "--help"]) == 0
        assert "--witness-floor" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["tolerance_scale", "seed", "theta_switch"])
    def test_retired_pipeline_keys_in_config_file_name_the_key(self, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 2, "r_o": 1.0, "mass": 0.6, key: 1}))
        with pytest.raises(cli_io.UsageError, match=f"'{key}'"):
            cli_io.parse_config(["extend", "--config", str(path)])

    def test_options_per_subcommand(self):
        commands = ("extend", "bartnik", "selftest", "collar")
        assert [len(cli_io._COMMANDS[c]) for c in commands] == [13, 10, 5, 13]


class TestFormatting:
    def test_fmt17_round_trips_random_floats(self):
        rng = np.random.default_rng(11)
        for value in rng.uniform(-1e6, 1e6, size=200):
            assert float(numutil.fmt17(value)) == value

    def test_fmt17_rejects_non_finite(self):
        with pytest.raises(DomainError):
            numutil.fmt17(math.inf)
        with pytest.raises(DomainError):
            numutil.fmt17(math.nan)

    def test_json_emitter_sorts_keys_and_handles_numpy(self):
        payload = {
            "b": np.float64(0.1),
            "a": np.int64(3),
            "c": np.bool_(True),
            "d": np.array([1.0, 2.0]),
            "e": None,
            "f": {"y": 1, "x": [True, "s"]},
        }
        text = numutil.json_text(payload)
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
            numutil.json_text({"x": object()})


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
        # A list of floats prints as the array does.
        assert cli_io.profile_csv(profile, margins.tolist()) == text

    def test_non_finite_cell_is_a_domain_error(self):
        profile = rn.rn_profile(rn.RNParams(n=2, m=1.0, q=0.0, lam=0.0), 2.0, 9)
        margins = np.linspace(0.5, 1.0, 9)
        margins[[3, 6]] = math.inf, math.nan
        with pytest.raises(DomainError, match="non-finite value in output: inf"):
            cli_io.profile_csv(profile, margins)

    def test_fmt17_prints_an_array_as_its_floats(self):
        values = np.array([0.1, -2.5e-300, 3.0, 1.0 / 3.0])
        assert numutil.fmt17(values) == [numutil.fmt17(v) for v in values.tolist()]
        with pytest.raises(DomainError, match="non-finite value in output: nan"):
            numutil.fmt17(np.array([1.0, math.nan, math.inf]))

    def test_hawking_and_grid_csv(self):
        path = ss.round_path(2, 1.0, n_t=65)
        spec = co.CollarSpec(
            path=path,
            epsilon=0.05,
            A=2.0 * co.find_A0(path, 0.05, 0.95, co.CONSTANT_LAPSE, 0.0, 0.0).A,
            kappa=0.95,
            case_id=co.CONSTANT_LAPSE,
            q=0.0,
            lam=0.0,
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

    @pytest.mark.parametrize("thetas", [
        np.linspace(0.0, math.pi, 41) ** 1.01 / math.pi ** 0.01,  # not uniform
        np.linspace(0.0, 3.0, 41),  # stops short of pi
        np.linspace(0.05, math.pi, 41),  # starts past 0
        np.linspace(0.0, math.pi, 41) + 2e-12,  # off every node by more than 1e-12
    ])
    def test_seed_csv_off_the_uniform_grid_is_a_usage_error(self, thetas, tmp_path, capsys):
        seed = tmp_path / "seed.csv"
        rows = [f"{float(t)!r},{0.1 * math.cos(t)!r}" for t in thetas]
        seed.write_text("\n".join(["theta,w"] + rows) + "\n")
        rc = cli_io.main(["collar", "--n", "2", "--seed-csv", str(seed)])
        assert rc == 2
        assert "must sample theta uniformly from 0 to pi" in capsys.readouterr().err

    def test_seed_csv_is_the_chebyshev_interpolant_of_its_samples(self, tmp_path):
        seed = tmp_path / "seed.csv"
        seed.write_text(_cos_seed_csv(0.3))
        theta = np.linspace(0.0, math.pi, 1025)
        w = cli_io._exponent_from_csv(str(seed))(theta)
        assert ss._chebyshev_series(w).shape == (2,)
        assert np.max(np.abs(w - 0.3 * np.cos(theta))) < 1e-16

    def test_extend_from_csv_samples_matches_the_cos_seed(self, tmp_path, capsys):
        # The file samples 0.3 cos(theta), so both runs build one seed up to
        # rounding and every report field agrees to 1e-12 of its magnitude.
        seed = tmp_path / "seed.csv"
        seed.write_text(_cos_seed_csv(0.3))
        reports = []
        for source in (["--seed-csv", str(seed)], ["--seed-cos", "0.3"]):
            assert cli_io.main(["extend", "--n", "2", "--mass", "0.7", *source]) == 0
            reports.append(json.loads(capsys.readouterr().out))

        def leaves(value, key=""):
            if isinstance(value, dict):
                for name, item in value.items():
                    yield from leaves(item, f"{key}.{name}")
            elif isinstance(value, list):
                for k, item in enumerate(value):
                    yield from leaves(item, f"{key}[{k}]")
            else:
                yield key, value

        csv, cos = (dict(leaves(report)) for report in reports)
        assert csv.keys() == cos.keys()
        for key, value in cos.items():
            if key.startswith(".config."):
                continue
            if isinstance(value, float):
                assert abs(csv[key] - value) <= 1e-12 * abs(value), key
            else:
                assert csv[key] == value, key

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
    def test_each_artifact_column_is_computed_and_printed_once(self, tmp_path, monkeypatch):
        # profile.csv and the plot files share s, f and the margin: one
        # margin evaluation and one printing of each of the seven columns.
        margins, printed = [], []

        def margin_operator(*args, original=cli_io.su.dec_margin_operator):
            margins.append(args)
            return original(*args)

        def fmt17(value, original=cli_io.fmt17):
            if isinstance(value, np.ndarray):
                printed.append(value.size)
            return original(value)

        monkeypatch.setattr(cli_io, "su", type("su", (), {
            "dec_margin_operator": staticmethod(margin_operator)}))
        monkeypatch.setattr(cli_io, "fmt17", fmt17)
        rc = cli_io.main(["extend", "--n", "2", "--r-o", "1.0", "--mass", "0.55",
                          "--out", str(tmp_path / "report.json"),
                          "--profile-out", str(tmp_path / "profile.csv"),
                          "--plot-prefix", str(tmp_path / "run")])
        assert rc == 0
        assert len(margins) == 1
        samples = json.loads((tmp_path / "report.json").read_text())["diagnostics"]["samples"]
        assert printed == [samples] * 5 + [513] * 2

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

    def test_no_admissible_route_exits_with_precondition_code(self, capsys):
        # n = 3 at q = 0.99 r_o^2 is sub-extremal, but its charge gap is
        # negative at the positive-scalar floor kappa = 0.95 * 3.
        rc = cli_io.main(
            ["extend", "--n", "3", "--r-o", "1.0", "--q", "0.99", "--mass", "1.05"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "PreconditionError: [stage: curvature-floor]" in err

    def test_seed_past_the_stability_edge_exits_with_precondition_code(self, capsys):
        # lambda1(-Laplacian + K) < 0 for 1.5 cos(theta), outside the
        # hypothesis of the eigenfunction lapse; no other route admits it.
        rc = cli_io.main(["extend", "--n", "2", "--seed-cos", "1.5", "--mass", "2.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "PreconditionError: [stage: curvature-floor]" in err
        assert "stability hypothesis" in err and "min lambda1 = -0.238" in err

    @pytest.mark.parametrize("amplitude,message", [
        ("6", "slice volume radii drift"),
        ("8", "slice volume radii drift"),
    ])
    def test_seed_too_steep_for_the_grid_exits_with_construction_code(
            self, capsys, amplitude, message):
        # The default theta grid does not resolve these seeds' area gauge:
        # a construction limit, not a fault of the input.
        rc = cli_io.main(["extend", "--n", "2", "--seed-cos", amplitude, "--mass", "100",
                          "--n-t", "65"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "ConstructionError: [stage: seed]" in err and message in err

    def test_construction_error_prints_its_diagnostics(self, capsys):
        # Below the margin's crossing the collar fails; the worst sample
        # follows the unchanged message line as artifact JSON.
        rc = cli_io.main(["collar", "--n", "2", "--seed-cos", "0.3", "--amplitude", "0.2"])
        assert rc == 3
        first, rest = capsys.readouterr().err.split("\n", 1)
        assert first == "error: ConstructionError: energy condition violated on the collar"
        diagnostics = json.loads(rest)
        assert set(diagnostics) == {"min_margin", "t", "theta"}
        assert diagnostics["min_margin"] < 0.0
        assert rest == numutil.json_text(diagnostics)

    @pytest.mark.parametrize("exc, lines", [
        (DomainError("bad"), ["error: DomainError: bad"]),
        (ConstructionError("no luck", {"eps": 0.25, "trace": [1, 2]}),
         ["error: ConstructionError: no luck", "{", '  "eps": 0.25,', '  "trace": [',
          "    1,", "    2", "  ]", "}"]),
        (PreconditionError("off", {"x": float("nan")}),
         ["error: PreconditionError: off",
          "diagnostics not serializable: non-finite value in output: nan"]),
    ])
    def test_error_lines_and_exit_codes(self, exc, lines, monkeypatch, capsys):
        def fail(config):
            raise exc

        monkeypatch.setattr(cli_io, "run", fail)
        assert cli_io.main(["classify", "--n", "2", "--m", "1"]) == exc.exit_code
        assert capsys.readouterr().err.splitlines() == lines

    def test_steep_seed_inside_the_grid_gets_the_stability_refusal(self, capsys):
        rc = cli_io.main(["extend", "--n", "2", "--seed-cos", "4", "--mass", "100",
                          "--n-t", "65"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "PreconditionError: [stage: curvature-floor]" in err
        assert "stability hypothesis" in err

    def test_pole_regular_seed_on_a_coarse_grid_certifies(self, capsys):
        # The pole check allows for its stencil's truncation error, so an
        # exactly regular seed on 33 points is not refused as an input fault.
        rc = cli_io.main(["extend", "--n", "2", "--seed-cos", "0.62", "--n-theta", "33",
                          "--n-t", "65", "--mass", "0.9"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["route"] == "eigenfunction"
        assert payload["achieved_mass"] == 0.9
        rc = cli_io.main(["extend", "--n", "2", "--seed-cos", "2", "--n-theta", "33",
                          "--n-t", "65", "--mass", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "PreconditionError: [stage: curvature-floor]" in err
        assert "stability hypothesis" in err

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

    def test_ledger_result_matches_to_json(self, tmp_path, capsys):
        out = tmp_path / "ledger.json"
        rc = cli_io.main(["selftest", "--criteria", "1,2", "--out", str(out)])
        assert rc == 0
        expected = json.loads(pl.selftest(criteria=(1, 2)).to_json())
        assert json.loads(out.read_text())["result"] == expected

    def test_malformed_criteria_is_a_usage_error(self, capsys):
        rc = cli_io.main(["selftest", "--criteria", "1,x"])
        assert rc == 2
        assert "criteria" in capsys.readouterr().err

    def test_failed_criterion_exits_with_the_verification_code(self, monkeypatch, capsys):
        entry = pl.SelftestEntry(criterion=1, name="stub", passed=False, detail={})
        failed = pl.SelftestResult(entries=(entry,), config={}, passed=False)
        monkeypatch.setattr(pl, "selftest", lambda *args, **kwargs: failed)
        assert cli_io.main(["selftest"]) == VerificationError.exit_code == 4
        assert capsys.readouterr().out.startswith("[C1] FAIL")


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

    def test_module_entry_point_runs_the_command(self, tmp_path):
        # `python -m charged_extensions.cli_io` runs main and exits with its
        # code: the round extend prints its report, a bad flag exits 2.
        src = Path(cli_io.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "charged_extensions.cli_io", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)

        done = run("extend", "--n", "2", "--r-o", "1.0", "--mass", "0.55")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["requested_mass"] == 0.55
        bad = run("extend", "--n", "2", "--r-o", "1.0", "--mass", "0.55", "--bogus")
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert "unrecognized arguments: --bogus" in bad.stderr


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_artifact_cases_parse(name, argv):
    # The byte-identity case set (tests/artifact_cases.py) stays runnable.
    assert cli_io.parse_config(argv).command == argv[0]
    assert [case for case, _ in CASES].count(name) == 1


def test_artifact_compare_lists_moved_fields(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "a/report.json": ('{"x": 1.0, "w": [{"s": 2.0}, {"s": 4.0}], "k": "eigen"}',
                          '{"x": 1.0, "w": [{"s": 2.0}, {"s": 4.4}], "k": "eigen"}'),
        "a/profile.csv": ("s,f,margin\n0,1,0\n1,2,-4\n", "s,f,margin\n0,1,1e-3\n1,2.5,-4\n"),
        "a/run.dat": ("# s f\n0 1\n", "# s f\n0 1\n"),
        "b/stdout.txt": ("[C10] PASS 1\n", "[C10] FAIL 1\n"),
        "b/old.txt": ("1\n", None),
    }
    for name, (before, after) in files.items():
        for root, text in ((old, before), (new, after)):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
    assert compare_trees(old, new) == [
        "a/profile.csv: f max rel shift 0.25 (abs 0.5)",
        # A field with exact zeros is measured against its largest magnitude.
        "a/profile.csv: margin max rel shift 0.00025 (abs 0.001)",
        "a/report.json: w[].s max rel shift 0.1 (abs 0.4)",
        "b/old.txt: only in old",
        "b/stdout.txt: line 1 non-numeric value 'PASS' -> 'FAIL'",
    ]
    assert compare_trees(old, old) == []
