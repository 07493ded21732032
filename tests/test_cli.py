import csv
import json
import re
from unittest import mock

import numpy as np
import pytest

from focktomo import cli, selftest
from focktomo import imperfections as imp
from focktomo import linear_optics as lo
from focktomo import tomography as tg
from focktomo.combinatorics import enumerate_fock_basis


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: focktomo.")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def write_state(path, photons=2, modes=2, seed=5):
    basis = enumerate_fock_basis(photons, modes)
    rho = tg.random_density_matrix(basis, seed)
    path.write_text(json.dumps(rho.to_json_dict()))
    return rho


class TestBounds:
    def test_two_mode_column_and_feasibility(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = cli.main(
            [
                "bounds",
                "--photons",
                "1:3",
                "--modes",
                "2",
                "--meas-modes",
                "2:4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        schema, header, rows = read_csv(out)
        assert schema == "# schema: focktomo.bounds.v1"
        assert header[:6] == [
            "photons",
            "modes",
            "meas_modes",
            "fock_dimension",
            "min_configs",
            "min_configs_extended",
        ]
        base_counts = [int(r[4]) for r in rows if r[2] == "2"]
        assert base_counts == [3, 5, 7]
        feasible = {
            (int(r[0]), int(r[1]), int(r[2])): bool(int(r[6])) for r in rows
        }
        assert feasible[(2, 2, 4)] is True
        assert feasible[(2, 2, 3)] is False

    def test_rejects_invalid_ranges(self):
        assert cli.main(["bounds", "--photons", "0:2", "--modes", "2"]) == 2
        assert cli.main(["bounds", "--photons", "nope", "--modes", "2"]) == 2

    def test_fewer_measured_modes_than_modes_are_left_out(self, tmp_path):
        out = tmp_path / "bounds.csv"
        argv = ["bounds", "--photons", "2", "--modes", "2:3", "--meas-modes", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [row[:3] for row in rows] == [["2", "2", "2"]]


class TestRankScan:
    @pytest.mark.parametrize("generator", ["haar", "mesh"])
    def test_minimal_r_matches_the_bound(self, tmp_path, generator, capsys):
        out = tmp_path / "trace.csv"
        code = cli.main(
            [
                "rank-scan",
                "--photons",
                "2",
                "--modes",
                "2",
                "--generator",
                generator,
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "minimal R = 5" in capsys.readouterr().out
        _, header, rows = read_csv(out)
        assert header == ["configs", "rank", "required_rank"]
        ranks = [int(r[1]) for r in rows]
        assert ranks == sorted(ranks)
        assert ranks[-1] == 9

    def test_summary_row_format_is_stable(self, tmp_path):
        summary = tmp_path / "summary.csv"
        code = cli.main(
            [
                "rank-scan",
                "--photons",
                "2",
                "--modes",
                "2",
                "--seed",
                "1",
                "--tolerance-rank",
                "1e-10",
                "--out",
                str(tmp_path / "t.csv"),
                "--summary",
                str(summary),
            ]
        )
        assert code == 0
        schema, header, rows = read_csv(summary)
        assert schema == "# schema: focktomo.experiment.v1"
        assert header == [
            "photons",
            "modes",
            "meas_modes",
            "generator",
            "seed",
            "configs",
            "rank",
            "complete",
            "residual",
        ]
        assert rows == [["2", "2", "2", "haar", "1", "5", "9", "1", ""]]

    def test_r_max_exhaustion_is_a_numerical_failure(self, tmp_path):
        code = cli.main(
            [
                "rank-scan",
                "--photons",
                "2",
                "--modes",
                "2",
                "--seed",
                "1",
                "--r-max",
                "2",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3


class TestMinModes:
    def test_two_mode_grid_observes_four(self, tmp_path):
        out = tmp_path / "mm.csv"
        code = cli.main(
            [
                "min-modes",
                "--photons",
                "1:3",
                "--modes",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["photons", "modes", "bound", "numeric"]
        for row in rows:
            assert int(row[3]) == 4
            assert int(row[3]) >= int(row[2])

    def test_three_mode_row_decreases_with_more_photons(self, tmp_path):
        out = tmp_path / "mm3.csv"
        code = cli.main(
            [
                "min-modes",
                "--photons",
                "1:3",
                "--modes",
                "3",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        numeric = [int(r[3]) for r in rows]
        bounds = [int(r[2]) for r in rows]
        assert numeric == sorted(numeric, reverse=True)
        assert all(n >= b for n, b in zip(numeric, bounds))


    def test_a_cap_short_of_the_bound_is_reported(self, capsys):
        argv = ["min-modes", "--photons", "2", "--modes", "3", "--meas-modes-max", "4"]
        assert cli.main(argv) == 0
        assert "N=2 M=3: cap 4 exceeded (bound 8)" in capsys.readouterr().out


class TestReconstructCommand:
    def test_exact_round_trip_and_output_document(self, tmp_path):
        state = tmp_path / "state.json"
        rho = write_state(state)
        out = tmp_path / "result.json"
        code = cli.main(
            [
                "reconstruct",
                "--state",
                str(state),
                "--seed",
                "7",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "focktomo.reconstruct.v1"
        assert document["sweep"][0]["trace_distance"] < 1e-8
        estimate = np.array(
            [[complex(re, im) for re, im in row] for row in document["projected_estimate"]]
        )
        assert tg.trace_distance(estimate, rho.matrix) < 1e-8

    def test_sampled_estimate_matches_the_library(self, tmp_path):
        state = tmp_path / "state.json"
        rho = write_state(state, photons=2, modes=3)
        out = tmp_path / "result.json"
        argv = ["reconstruct", "--state", str(state), "--shots", "1000", "--seed", "7"]
        assert cli.main([*argv, "--json", str(out)]) == 0
        document = json.loads(out.read_text())
        configs = [lo.InterferometerConfig.from_json_dict(c) for c in document["configs"]]
        superop = tg.build_superoperator(configs, 2, 3)
        library = tg.reconstruct(superop, tg.simulate_records(rho, configs, 1000, 7))
        raw = np.array(
            [[complex(re, im) for re, im in row] for row in document["raw_estimate"]]
        )
        np.testing.assert_array_equal(raw, library.raw)

    def test_detector_sweep_matches_the_library_route(self, tmp_path):
        # README's stream rule: the CLI samples every shot count from its law stack,
        # which must give what sweep_frequencies gives for each count, laws and seed.
        state = tmp_path / "state.json"
        rho = write_state(state, photons=2, modes=3)
        out = tmp_path / "result.json"
        argv = ["reconstruct", "--state", str(state), "--shots", "0,1000,100000", "--seed", "7"]
        argv += ["--efficiency", "0.9", "--invert-detector", "--json", str(out)]
        assert cli.main(argv) == 0
        document = json.loads(out.read_text())
        configs = [lo.InterferometerConfig.from_json_dict(c) for c in document["configs"]]
        superop = tg.build_superoperator(configs, 2, 3)
        basis = imp.truncated_basis(2, 3)
        model = imp.DetectorModel.uniform(0.9, 3)
        laws = imp.embed_sector(tg.outcome_probabilities(rho, configs), 2, basis)
        detected = imp.detector_response(laws, basis, model)
        for entry, shots in zip(document["sweep"], (0, 1000, 100_000)):
            frequencies = tg.sweep_frequencies(detected, [shots], 7)[0]
            inverted = imp.invert_detector_response(frequencies, basis, model)
            conditionals, masses = imp.postselect_total(inverted, basis, 2)
            library = tg.reconstruct(superop, conditionals)
            assert entry["shots"] == shots
            assert entry["residual"] == library.residual
            assert entry["sector_masses"] == masses.tolist()
        raw = np.array(document["raw_estimate"]).view(complex)[..., 0]
        np.testing.assert_array_equal(raw, library.raw)

    def test_generator_choices_come_from_the_registry(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        reconstruct = commands.choices["reconstruct"]
        generator = next(a for a in reconstruct._actions if a.dest == "generator")
        assert generator.choices == [*sorted(tg.GENERATORS), "newton-young"]

    def test_newton_young_uses_exactly_the_bound(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state, photons=2, modes=2)
        out = tmp_path / "ny.json"
        code = cli.main(
            [
                "reconstruct",
                "--state",
                str(state),
                "--generator",
                "newton-young",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert len(document["configs"]) == 5
        assert all(
            c["provenance"]["kind"] == "newton_young" for c in document["configs"]
        )
        assert document["sweep"][0]["trace_distance"] < 1e-8

    def test_shot_sweep_errors_shrink(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state)
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "reconstruct",
                "--state",
                str(state),
                "--shots",
                "10000,1000000",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        errors = [float(r[2]) for r in rows]
        assert errors[1] < errors[0]

    def test_detector_model_with_inversion(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state)
        out = tmp_path / "eff.json"
        code = cli.main(
            [
                "reconstruct",
                "--state",
                str(state),
                "--efficiency",
                "0.9",
                "--invert-detector",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        entry = document["sweep"][0]
        assert entry["trace_distance"] < 1e-8
        np.testing.assert_allclose(entry["sector_masses"], 1.0, atol=1e-10)

    def test_postselection_mass_reflects_the_loss(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state, photons=2)
        out = tmp_path / "ps.json"
        code = cli.main(
            [
                "reconstruct",
                "--state",
                str(state),
                "--efficiency",
                "0.9",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        entry = json.loads(out.read_text())["sweep"][0]
        np.testing.assert_allclose(entry["sector_masses"], 0.81, atol=1e-10)
        assert entry["trace_distance"] < 1e-8

    def test_incomplete_configuration_count_fails_numerically(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state)
        code = cli.main(
            ["reconstruct", "--state", str(state), "--configs", "3"]
        )
        assert code == 3

    def test_missing_state_file_is_a_validation_error(self, tmp_path):
        code = cli.main(["reconstruct", "--state", str(tmp_path / "nope.json")])
        assert code == 2


    def test_one_factorisation_per_level_serves_every_shot_count(self, tmp_path, monkeypatch):
        factor = mock.Mock(wraps=tg.dgeqrf)
        monkeypatch.setattr(tg, "dgeqrf", factor)
        state = tmp_path / "state.json"
        write_state(state)
        argv = ["reconstruct", "--state", str(state), "--shots", "0,10000,1000000",
                "--efficiency", "0.9", "--invert-detector"]
        assert cli.main(argv) == 0
        assert factor.call_count == len(tg._level_bases(2, 2, 2).dims) == 3

    def test_rank_is_decided_once_at_the_given_tolerance(self, tmp_path, capsys):
        state, out = tmp_path / "state.json", tmp_path / "out.json"
        write_state(state, photons=3, modes=4, seed=1)
        argv = ["reconstruct", "--state", str(state), "--json", str(out)]
        assert cli.main(argv + ["--configs", "29"]) == 3
        assert "rank 390 < 400 (deficit 10)" in capsys.readouterr().err
        assert cli.main(argv) == 0 and json.loads(out.read_text())["rank"] == 400
        # a tolerance looser than the complete map's sigma_min / sigma_max (~1.6e-4)
        # is not overruled by the default
        assert cli.main(argv + ["--tolerance-rank", "1e-2"]) == 3
        assert "< 400" in capsys.readouterr().err
        assert cli.main(argv + ["--tolerance-rank", "-1"]) == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["reconstruct", "--configs", "0"], "--configs must be at least 1, got 0"),
            (["rank-scan", "--r-max", "0"], "r_max must be at least 1, got 0"),
            (["rank-scan", "--tolerance-rank", "-1"], "rel_threshold must lie in (0, 1), got -1.0"),
            (["rank-scan", "--tolerance-rank", "nan"], "rel_threshold must lie in (0, 1), got nan"),
            # at a tolerance of 1 or more no singular value could count
            (["rank-scan", "--tolerance-rank", "1"], "rel_threshold must lie in (0, 1), got 1.0"),
            (["min-modes", "--tolerance-rank", "1"], "rel_threshold must lie in (0, 1), got 1.0"),
            (["reconstruct", "--tolerance-rank", "2"], "rel_threshold must lie in (0, 1), got 2.0"),
            (["reconstruct", "--generator", "newton-young", "--configs", "3"],
             "--configs does not apply to newton-young"),
            (["reconstruct", "--invert-detector"], "--invert-detector needs --efficiency"),
            (["reconstruct", "--shots", "1,x"], "bad --shots value '1,x'"),
            (["reconstruct", "--efficiency", "0"], "efficiency 0.0 outside (0, 1]"),
            (["rank-scan", "--photons", "3:2"], "photons range '3:2' is empty"),
            (["rank-scan", "--photons", "1:2"], "photons must be a single integer here, got '1:2'"),
            (["bounds", "--modes", "3", "--meas-modes", "2"],
             "requested ranges produce no (N, M, M') combinations"),
            # the cap is checked against the largest M before any search prints
            (["min-modes", "--modes", "2:3", "--meas-modes-max", "2"],
             "meas_modes_max must be at least 3, got 2"),
        ],
    )
    def test_exits_two_and_says_why(self, argv, message, tmp_path, capsys):
        if argv[0] == "reconstruct":
            state = tmp_path / "state.json"
            write_state(state)
            argv = [*argv, "--state", str(state)]
        else:  # the defaults first, so that the case's own options win
            argv = [argv[0], "--photons", "2", "--modes", "2", *argv[1:]]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"invalid input: {message}" in captured.err and captured.out == ""

    def test_min_modes_cap_below_the_state_modes(self, capsys):
        argv = ["min-modes", "--photons", "2", "--modes", "3", "--meas-modes-max", "2"]
        assert cli.main(argv) == 2
        message = "invalid input: meas_modes_max must be at least 3, got 2"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"command": "bounds", "photons": 2, "modes": "2"},
             "spec field 'photons' must be str, got 2"),
            ({"command": "rank-scan", "photons": "2", "modes": "2", "seed": "abc"},
             "spec field 'seed' must be int, got 'abc'"),
            ({"command": "rank-scan", "photons": "2", "modes": "2", "r_max": "5"},
             "spec field 'r_max' must be int | None, got '5'"),
            ({"command": "reconstruct", "state_path": "state.json", "shots": 5},
             "spec field 'shots' must be tuple[int, ...], got 5"),
            ({"command": "bounds", "photons": "1", "modes": "2", "seed": 1.5},
             "spec field 'seed' must be int, got 1.5"),
            ({"command": "bounds", "photons": "1", "modes": "2", "seed": True},
             "spec field 'seed' must be int, got True"),
            ({"photons": "2", "modes": "2"}, "spec field 'command' is missing"),
            ([1, 2], "a spec must be a JSON object, got list"),
            ({"command": "bounds", "photons": "1", "modes": "2", "bogus": 1},
             "unknown spec fields: ['bogus']"),
            ({"command": "frobnicate"}, "spec names unknown command 'frobnicate'"),
        ],
    )
    def test_run_spec_checks_field_types(self, record, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(record))
        assert cli.main(["run-spec", str(path)]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"photons": 1, "modes": 2, "matrix": [[1, 0], [0, 0]]}, "[re, im] pairs"),
            ([[[1, 0]]], "a state must be a JSON object, got list"),
            ({"photons": 1, "modes": 2}, "state field 'matrix' is missing"),
            (
                {"photons": 1, "modes": 0, "matrix": [[[1, 0]]]},
                "mode count must be positive, got 0",
            ),
        ],
    )
    def test_malformed_state_file(self, record, message, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(record))
        assert cli.main(["reconstruct", "--state", str(state)]) == 2
        assert message in capsys.readouterr().err

    def test_nan_state_file_is_not_hermitian(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        record = {"photons": 1, "modes": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
        record["matrix"][1][1][0] = float("nan")
        state.write_text(json.dumps(record))  # written as the JSON extension NaN
        assert cli.main(["reconstruct", "--state", str(state)]) == 2
        assert "invalid input: matrix is not Hermitian (residual nan)" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["photons", "modes"])
    @pytest.mark.parametrize("value", [None, [2], {"n": 2}, True])
    def test_state_counts_must_be_integers(self, field, value, tmp_path, capsys):
        state = tmp_path / "state.json"
        record = {"photons": 1, "modes": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
        record[field] = value
        state.write_text(json.dumps(record))
        assert cli.main(["reconstruct", "--state", str(state)]) == 2
        message = f"state field {field!r} must be an integer, got {value!r}"
        assert f"invalid input: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", ["100000000000000000000", "0,9223372036854775808"])
    def test_a_shot_count_past_int64_exits_2(self, shots, tmp_path, capsys):
        state, out = tmp_path / "state.json", tmp_path / "out.json"
        write_state(state)
        argv = ["reconstruct", "--state", str(state), "--shots", shots, "--json", str(out)]
        assert cli.main(argv) == 2
        largest = shots.split(",")[-1]
        message = f"shot count must be at most 9223372036854775807, got {largest}"
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_spec_checks_each_shot_count_by_the_samplers_rule(self):
        message = f"shot count must be at most {2**63 - 1}, got {2**63}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.ExperimentSpec("reconstruct", shots=(2**63,))

    @pytest.mark.parametrize(
        "option,field,message",
        [
            (["--shots", "100000000000000000000"], {"shots": [10**20]},
             "shot count must be at most 9223372036854775807, got 100000000000000000000"),
            (["--shots", "0,-1"], {"shots": [0, -1]},
             "shot count must be a non-negative integer, got -1"),
            (["--efficiency", "0"], {"efficiency": 0.0}, "efficiency 0.0 outside (0, 1]"),
        ],
    )
    def test_a_bad_count_or_efficiency_exits_2_before_any_setting_is_drawn(
        self, option, field, message, tmp_path, capsys, monkeypatch
    ):
        def draw(*args):
            raise AssertionError("a setting was drawn")

        monkeypatch.setitem(tg.GENERATORS, "haar", draw)
        state, spec = tmp_path / "state.json", tmp_path / "spec.json"
        write_state(state)
        record = cli.ExperimentSpec("reconstruct", state_path=str(state)).to_json_dict()
        spec.write_text(json.dumps({**record, **field}))
        for argv in (["reconstruct", "--state", str(state), *option], ["run-spec", str(spec)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"invalid input: {message}\n" and captured.out == ""

    def test_run_spec_rejects_an_empty_shot_list(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        write_state(state)
        record = cli.ExperimentSpec("reconstruct", state_path=str(state)).to_json_dict()
        record["shots"] = []
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(record))
        assert cli.main(["run-spec", str(path)]) == 2
        assert "invalid input: shots must list at least one count" in capsys.readouterr().err

    def test_run_spec_rejects_inversion_without_efficiency(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        write_state(state)
        spec = cli.ExperimentSpec("reconstruct", state_path=str(state), invert_detector=True)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json_dict()))
        assert cli.main(["run-spec", str(path)]) == 2
        assert "--invert-detector needs --efficiency" in capsys.readouterr().err


class TestDeterminismAndReplay:
    def test_repeated_runs_are_bit_identical(self, tmp_path):
        state = tmp_path / "state.json"
        write_state(state)
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                cli.main(
                    [
                        "reconstruct",
                        "--state",
                        str(state),
                        "--seed",
                        "11",
                        "--json",
                        str(out),
                    ]
                )
                == 0
            )
            text = out.read_text()
            # the spec embeds the output path, which differs; strip it
            outputs.append(text.replace(name, "X.json"))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "detector", [[], ["--efficiency", "0.9", "--invert-detector"]]
    )
    def test_sweep_entries_do_not_depend_on_the_other_shot_counts(
        self, tmp_path, detector
    ):
        # Each setting's exact law is computed once per run and sampled from
        # the same per-setting stream at every shot count, so a sweep's entry
        # for one shot count is byte-identical to a run of that shot count alone.
        state = tmp_path / "state.json"
        write_state(state, photons=2, modes=3)
        out = tmp_path / "out.json"

        def sweep(shots):
            argv = ["reconstruct", "--state", str(state), "--shots", shots]
            argv += ["--seed", "7", *detector, "--json", str(out)]
            assert cli.main(argv) == 0
            return [json.dumps(e) for e in json.loads(out.read_text())["sweep"]]

        alone = [sweep(shots)[0] for shots in ("0", "1000", "100000")]
        assert sweep("0,1000,100000") == alone

    def test_run_spec_replays_a_rank_scan(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        out_json = tmp_path / "scan.json"
        assert (
            cli.main(
                [
                    "rank-scan",
                    "--photons",
                    "2",
                    "--modes",
                    "2",
                    "--seed",
                    "9",
                    "--out",
                    str(out_csv),
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        first = out_csv.read_text()
        capsys.readouterr()
        assert cli.main(["run-spec", str(out_json)]) == 0
        assert "minimal R = 5" in capsys.readouterr().out
        assert out_csv.read_text() == first


class TestSelftestCommand:
    def test_passes_on_a_fresh_tree(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(selftest.CHECKS)

    def test_sign_error_in_the_lift_is_named_by_the_hom_oracle(
        self, monkeypatch, capsys
    ):
        true_columns = lo._lift_columns

        def flipped(*args):
            return -true_columns(*args)

        monkeypatch.setattr(lo, "_lift_columns", flipped)
        code = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL lift-hom-oracle" in out


class TestCommandsAcceptOnlyTheOutputsTheyWrite:
    @pytest.mark.parametrize(
        "argv",
        [
            ["make-state", "--photons", "1", "--modes", "2", "--out", "state.csv"],
            ["make-state", "--photons", "1", "--modes", "2", "--summary", "summary.csv"],
            ["bounds", "--photons", "1", "--modes", "2", "--summary", "summary.csv"],
        ],
    )
    def test_an_option_the_command_ignores_is_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestMakeState:
    @staticmethod
    def make(tmp_path, seed, name):
        path = tmp_path / name
        argv = ["make-state", "--photons", "2", "--modes", "3", "--seed", str(seed)]
        assert cli.main([*argv, "--json", str(path)]) == 0
        return path.read_bytes()

    def test_seed_fixes_the_document_bytes(self, tmp_path):
        first = self.make(tmp_path, 5, "a.json")
        assert self.make(tmp_path, 5, "b.json") == first
        assert self.make(tmp_path, 6, "c.json") != first

    def test_document_loads_as_a_state(self, tmp_path):
        rho = tg.DensityMatrix.from_json_dict(json.loads(self.make(tmp_path, 5, "a.json")))
        assert (rho.basis.photons, rho.basis.modes) == (2, 3)
        assert rho.matrix.shape == (6, 6)

    def test_zero_photons_are_rejected_as_reconstruct_would(self, tmp_path, capsys):
        # make-state takes the photon minimum that reconstruct needs: the vacuum is
        # refused when written, and the one-photon state it writes reconstructs.
        state = tmp_path / "state.json"
        argv = ["make-state", "--modes", "2", "--json", str(state)]
        assert cli.main([*argv, "--photons", "0"]) == cli.EXIT_VALIDATION
        assert "photons must be at least 1, got 0" in capsys.readouterr().err
        assert not state.exists()
        assert cli.main([*argv, "--photons", "1"]) == 0
        assert cli.main(["reconstruct", "--state", str(state)]) == 0

    def test_without_json_the_document_goes_to_stdout(self, tmp_path, capsys):
        written = self.make(tmp_path, 5, "a.json")
        capsys.readouterr()
        assert cli.main(["make-state", "--photons", "2", "--modes", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out.encode() == written


class TestBoundsTakesNoSeed:
    def test_seed_option_is_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--photons", "1", "--modes", "2", "--seed", "1"])
        assert exc.value.code == 2

    def test_a_bounds_spec_with_a_seed_still_replays(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--photons", "1", "--modes", "2", "--out", str(out)]) == 0
        first = out.read_text()
        record = cli.ExperimentSpec("bounds", "1", "2", seed=3, out_csv=str(out)).to_json_dict()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(record))
        out.unlink()
        assert cli.main(["run-spec", str(path)]) == 0
        assert out.read_text() == first


class TestParser:
    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parsing_leaves_the_cached_parser_unchanged(self, capsys):
        first = cli.build_parser().parse_args(["bounds", "--photons", "2", "--modes", "2"])
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["bounds", "--photons", "2"])
        assert cli.build_parser().parse_args(["bounds", "--photons", "2", "--modes", "2"]) == first
        capsys.readouterr()


class TestCommandLineMatchesTheLibrary:
    @pytest.mark.parametrize("shots", [0, 1000])
    @pytest.mark.parametrize("photons,modes,meas_modes", [(3, 4, 4), (2, 2, 4)])
    def test_raw_estimate_is_the_library_estimate_bit_for_bit(
        self, photons, modes, meas_modes, shots, tmp_path
    ):
        state = tmp_path / "state.json"
        rho = write_state(state, photons=photons, modes=modes, seed=photons + modes)
        out = tmp_path / "result.json"
        argv = ["reconstruct", "--state", str(state), "--meas-modes", str(meas_modes),
                "--shots", str(shots), "--seed", "11", "--json", str(out)]
        assert cli.main(argv) == 0
        document = json.loads(out.read_text())
        configs = [lo.InterferometerConfig.from_json_dict(c) for c in document["configs"]]
        superop = tg.build_superoperator(configs, photons, modes)
        library = tg.reconstruct(superop, tg.simulate_records(rho, configs, shots, 11))
        raw = lo.decode_complex_matrix(document["raw_estimate"])
        assert np.array_equal(raw, library.raw)

    def test_a_lossy_inverted_document_decodes_to_the_estimates_bit_for_bit(
        self, tmp_path, monkeypatch
    ):
        # The benchmark's configuration: the written document is one line with sorted
        # keys, and its estimates are the last reconstruction's, every bit.
        state = tmp_path / "state.json"
        write_state(state, photons=3, modes=4, seed=2)
        results = []
        monkeypatch.setattr(
            cli, "reconstruct", lambda *args: results.append(tg.reconstruct(*args)) or results[-1]
        )
        out = tmp_path / "result.json"
        argv = ["reconstruct", "--state", str(state), "--shots", "0,10000", "--efficiency",
                "0.9", "--invert-detector", "--seed", "3", "--json", str(out)]
        assert cli.main(argv) == 0
        text = out.read_text()
        document = json.loads(text)
        assert text == json.dumps(document, sort_keys=True) + "\n"
        for key, estimate in [("raw_estimate", results[-1].raw),
                              ("projected_estimate", results[-1].projected.matrix)]:
            decoded = lo.decode_complex_matrix(document[key])
            assert decoded.tobytes() == estimate.tobytes()
