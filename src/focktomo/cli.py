"""Command-line surface for the tomography experiments.

Subcommands emit CSV tables (with a schema tag line) and JSON documents
(complex numbers as [re, im] pairs).  Every run is deterministic given its
serialized spec, which is embedded in the JSON output and can be replayed
with ``run-spec``; a replayed spec has each field's JSON type checked
against the field's annotation before anything runs.

Exit codes: 0 on success, 2 for validation problems (bad arguments or
files), 3 for numerical failures (incomplete configurations, failed
self-checks).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import selftest
from .analytic_m2 import SingularHarmonicError, newton_young_configs
from .combinatorics import (
    design_size_bounds,
    enumerate_fock_basis,
    fock_dimension,
    min_configs,
    min_configs_extended,
    min_modes_lower_bound,
    single_config_feasible,
)
from .imperfections import (
    DetectorModel,
    IncompleteSectorError,
    detector_response,
    embed_sector,
    invert_detector_response,
    postselect_total,
    truncated_basis,
)
from .linear_optics import encode_complex_matrix
from .tomography import (
    GENERATORS,
    DensityMatrix,
    IncompleteConfigurationsError,
    _check_shots,
    build_superoperator,
    config_drawer,
    find_min_configs,
    find_min_modes,
    random_density_matrix,
    reconstruct,
    sweep_frequencies,
    trace_distance,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    IncompleteConfigurationsError,
    IncompleteSectorError,
    SingularHarmonicError,
    RuntimeError,
    np.linalg.LinAlgError,
)


# The JSON types a spec field of each annotated type takes: bools are not
# ints, and a float field takes an int.
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _json_matches(value, hint) -> bool:
    args = get_args(hint)
    if type(None) in args:
        return value is None or _json_matches(value, args[0])
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_json_matches(v, args[0]) for v in value)
    is_bool = isinstance(value, bool)
    return is_bool == (hint is bool) and isinstance(value, _JSON_TYPES[hint])


@dataclass
class ExperimentSpec:
    """Everything needed to replay a run bit-for-bit (exact mode).

    Construction checks the values; ``from_json_dict`` first checks each
    field's JSON type against its annotation.
    """

    command: str
    photons: str = ""
    modes: str = ""
    meas_modes: str | None = None
    generator: str = "haar"
    seed: int = 0
    shots: tuple[int, ...] = (0,)
    rank_tolerance: float | None = None
    efficiency: float | None = None
    invert_detector: bool = False
    state_path: str | None = None
    configs: int | None = None
    r_max: int | None = None
    meas_modes_max: int | None = None
    out_csv: str | None = None
    out_json: str | None = None
    summary_csv: str | None = None

    def __post_init__(self) -> None:
        self.shots = tuple(self.shots)
        if not self.shots:
            raise ValueError("shots must list at least one count")
        # The sampler's and the detector model's own rules, before any setting is drawn.
        for count in self.shots:
            _check_shots(count)
        if self.efficiency is not None:
            DetectorModel.uniform(self.efficiency, 1)

    def to_json_dict(self) -> dict:
        record = dataclasses.asdict(self)
        record["shots"] = list(self.shots)
        return record

    @classmethod
    def from_json_dict(cls, record: dict) -> "ExperimentSpec":
        if not isinstance(record, dict):
            raise ValueError(f"a spec must be a JSON object, got {type(record).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(record) - set(fields)
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        hints = get_type_hints(cls)
        for name, f in fields.items():
            if name not in record:
                if f.default is dataclasses.MISSING:
                    raise ValueError(f"spec field {name!r} is missing")
            elif not _json_matches(record[name], hints[name]):
                raise ValueError(f"spec field {name!r} must be {f.type}, got {record[name]!r}")
        return cls(**record)


def _parse_range(text: str, name: str, minimum: int) -> range:
    try:
        if ":" in text:
            lo, hi = (int(part) for part in text.split(":", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer or lo:hi range, got {text!r}")
    if lo > hi:
        raise ValueError(f"{name} range {text!r} is empty")
    if lo < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {lo}")
    return range(lo, hi + 1)


def _parse_int(text: str, name: str, minimum: int) -> int:
    values = _parse_range(text, name, minimum)
    if len(values) != 1:
        raise ValueError(f"{name} must be a single integer here, got {text!r}")
    return values[0]


def _meas_modes(spec: ExperimentSpec, modes: int) -> int:
    """M' from ``--meas-modes``, at least ``modes``; ``modes`` when it is not given."""
    return _parse_int(spec.meas_modes, "meas-modes", modes) if spec.meas_modes else modes


def _write_csv(path: str | None, schema: str, header: list[str], rows: list[list]) -> None:
    handle = open(path, "w", newline="") if path else sys.stdout
    try:
        handle.write(f"# schema: {schema}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            handle.close()


def _write_json(path: str | None, document: dict) -> None:
    text = json.dumps(document, sort_keys=True)  # no indent: it forces the pure-Python encoder
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


# One stable row shape shared by all experiment commands.
SUMMARY_SCHEMA = "focktomo.experiment.v1"
SUMMARY_HEADER = [
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


def _write_outputs(
    spec: ExperimentSpec,
    schema: str,
    payload: dict,
    table: tuple[list[str], list[list]] | None = None,
    summary: list[tuple] | None = None,
) -> None:
    """Write a command's CSV ``table`` (header, rows) to ``--out`` or stdout,
    its ``summary`` rows to ``--summary`` and its JSON document {"schema",
    "spec", **payload} to ``--json``.  A summary row is (photons, modes,
    meas_modes, configs, rank, complete, residual); the spec adds the rest.
    """
    if table is not None:
        _write_csv(spec.out_csv, schema, *table)
    if spec.summary_csv and summary is not None:
        rows = [[*row[:3], spec.generator, spec.seed, *row[3:]] for row in summary]
        _write_csv(spec.summary_csv, SUMMARY_SCHEMA, SUMMARY_HEADER, rows)
    if spec.out_json:
        _write_json(spec.out_json, {"schema": schema, "spec": spec.to_json_dict(), **payload})


def cmd_bounds(spec: ExperimentSpec) -> int:
    photon_range = _parse_range(spec.photons, "photons", 1)
    mode_range = _parse_range(spec.modes, "modes", 2)
    meas_range = _parse_range(spec.meas_modes or spec.modes, "meas-modes", 2)

    header = [
        "photons",
        "modes",
        "meas_modes",
        "fock_dimension",
        "min_configs",
        "min_configs_extended",
        "single_config_feasible",
        "min_modes_lower_bound",
        "design_lower",
        "design_upper",
        "design_dimension_bound",
    ]
    rows = []
    for photons in photon_range:
        for modes in mode_range:
            lower, upper, dim_bound = design_size_bounds(modes, photons)
            for meas_modes in meas_range:
                if meas_modes < modes:
                    continue
                rows.append(
                    [
                        photons,
                        modes,
                        meas_modes,
                        fock_dimension(photons, modes),
                        min_configs(photons, modes),
                        min_configs_extended(photons, modes, meas_modes),
                        int(single_config_feasible(photons, modes, meas_modes)),
                        min_modes_lower_bound(photons, modes),
                        lower,
                        upper,
                        dim_bound,
                    ]
                )
    if not rows:
        raise ValueError("requested ranges produce no (N, M, M') combinations")
    _write_outputs(
        spec, "focktomo.bounds.v1", {"header": header, "rows": rows}, table=(header, rows)
    )
    return EXIT_OK


def cmd_rank_scan(spec: ExperimentSpec) -> int:
    photons = _parse_int(spec.photons, "photons", 1)
    modes = _parse_int(spec.modes, "modes", 2)
    meas_modes = _meas_modes(spec, modes)
    search = find_min_configs(
        photons,
        modes,
        meas_modes,
        generator=spec.generator,
        seed=spec.seed,
        r_max=spec.r_max,
        rel_threshold=spec.rank_tolerance,
    )
    header = ["configs", "rank", "required_rank"]
    rows = [[r, rank, search.required_rank] for r, rank in search.rank_trace]
    complete = int(search.found is not None)
    bound = search.lower_bound
    # An incomplete scan still writes every output before it fails.
    _write_outputs(
        spec,
        "focktomo.rank_scan.v1",
        {
            "found": search.found,
            "lower_bound": bound,
            "required_rank": search.required_rank,
            "rank_trace": search.rank_trace,
            "provenance": [c.provenance.to_json_dict() for c in search.configs],
        },
        table=(header, rows),
        summary=[
            (photons, modes, meas_modes, len(search.configs), search.best_rank, complete, "")
        ],
    )
    if search.found is None:
        print(
            f"no complete set within {len(search.configs)} configurations; "
            f"best rank {search.best_rank} of {search.required_rank}"
        )
        raise RuntimeError(
            f"rank {search.best_rank} < {search.required_rank} after "
            f"{len(search.configs)} configurations"
        )
    comparison = "matches" if search.found == bound else "exceeds"
    print(
        f"minimal R = {search.found} ({spec.generator}); "
        f"counting bound {bound}: observed {comparison} the bound"
    )
    return EXIT_OK


def cmd_min_modes(spec: ExperimentSpec) -> int:
    photon_range = _parse_range(spec.photons, "photons", 1)
    mode_range = _parse_range(spec.modes, "modes", 2)
    cap = spec.meas_modes_max
    if cap is not None and cap < mode_range[-1]:  # before any search prints
        raise ValueError(f"meas_modes_max must be at least {mode_range[-1]}, got {cap}")
    header = ["photons", "modes", "bound", "numeric"]
    rows, scans, summary_rows = [], [], []
    for modes in mode_range:
        for photons in photon_range:
            search = find_min_modes(
                photons,
                modes,
                generator=spec.generator,
                seed=spec.seed,
                meas_modes_max=spec.meas_modes_max,
                rel_threshold=spec.rank_tolerance,
            )
            numeric = search.found if search.found is not None else ""
            bound, ranks = search.lower_bound, search.rank_by_meas_modes
            rows.append([photons, modes, bound, numeric])
            scans.append(
                dict(photons=photons, modes=modes, bound=bound, numeric=search.found, ranks=ranks)
            )
            last_meas, last_rank, _ = ranks[-1]
            summary_rows.append(
                (photons, modes, last_meas, 1, last_rank, int(search.found is not None), "")
            )
            if search.found is None:
                print(f"N={photons} M={modes}: cap {last_meas} exceeded (bound {bound})")
    _write_outputs(
        spec,
        "focktomo.min_modes.v1",
        {"header": header, "rows": rows, "scans": scans},
        table=(header, rows),
        summary=summary_rows,
    )
    return EXIT_OK


def _build_configs(spec: ExperimentSpec, photons: int, modes: int, meas_modes: int):
    if spec.generator == "newton-young":
        if spec.configs is not None:
            raise ValueError("--configs does not apply to newton-young (2N+1 settings)")
        if modes != 2 or meas_modes != 2:
            raise ValueError("the newton-young generator requires M = M' = 2")
        protocol = newton_young_configs(photons)
        return protocol.configs
    draw = config_drawer(spec.generator, spec.seed)
    if spec.configs is not None and spec.configs < 1:
        raise ValueError(f"--configs must be at least 1, got {spec.configs}")
    count = spec.configs or min_configs_extended(photons, modes, meas_modes)
    return draw(meas_modes, count)


def _simulated_sweep(spec: ExperimentSpec, truth: DensityMatrix, superop):
    """Every shot count's frequencies as one (S, R, K) stack, and its (S, R) sector
    masses when detectors are modelled (else None).

    The exact laws are read off the measurement map once per run, so no setting is
    lifted again for any shot count; behind detectors, the whole stack is inverted
    (when asked) and post-selected on N photons at once.
    """
    laws = superop.laws(truth)
    if spec.efficiency is None:
        return sweep_frequencies(laws, spec.shots, spec.seed), None
    model = DetectorModel.uniform(spec.efficiency, superop.meas_modes)
    basis = truncated_basis(truth.photons, superop.meas_modes)
    detected = detector_response(embed_sector(laws, truth.photons, basis), basis, model)
    stack = sweep_frequencies(detected, spec.shots, spec.seed).reshape(-1, len(basis))
    if spec.invert_detector:
        stack = invert_detector_response(stack, basis, model)
    # The N-photon sector of an inverted law is the detected sector over
    # eta^N, so it is never negative; lower sectors can be, but post-selection
    # drops them.
    conditionals, masses = postselect_total(stack, basis, truth.photons)
    sweep = (len(spec.shots), superop.n_configs)
    return conditionals.reshape(*sweep, -1), masses.reshape(sweep)


def cmd_reconstruct(spec: ExperimentSpec) -> int:
    if spec.state_path is None:
        raise ValueError("reconstruct requires --state FILE")
    if spec.invert_detector and spec.efficiency is None:
        raise ValueError("--invert-detector needs --efficiency")
    record = json.loads(Path(spec.state_path).read_text())
    truth = DensityMatrix.from_json_dict(record)
    photons, modes = truth.photons, truth.modes
    meas_modes = _meas_modes(spec, modes)
    configs = _build_configs(spec, photons, modes, meas_modes)

    superop = build_superoperator(configs, photons, modes)
    frequencies, masses = _simulated_sweep(spec, truth, superop)
    sweep = []
    for k, shots in enumerate(spec.shots):
        result = reconstruct(superop, frequencies[k], spec.rank_tolerance)
        distance = trace_distance(result.projected, truth)
        entry = {"shots": shots, "residual": result.residual, "trace_distance": distance}
        if masses is not None:
            entry["sector_masses"] = masses[k].tolist()
        sweep.append(entry)
        label = "exact" if shots == 0 else f"{shots} shots"
        print(f"{label}: residual {result.residual:.3e}, trace distance to truth {distance:.3e}")

    table = (
        ["shots", "residual", "trace_distance"],
        [[e["shots"], e["residual"], e["trace_distance"]] for e in sweep],
    )
    # stdout carries the per-shot lines, so the table goes only to --out.
    _write_outputs(
        spec,
        "focktomo.reconstruct.v1",
        {
            "rank": result.rank,
            "required_rank": fock_dimension(photons, modes) ** 2,
            "configs": [c.to_json_dict() for c in configs],
            "sweep": sweep,
            "raw_estimate": encode_complex_matrix(result.raw),
            "projected_estimate": encode_complex_matrix(result.projected.matrix),
        },
        table=table if spec.out_csv else None,
        summary=[  # complete is 1: reconstruct raises on an incomplete map
            (photons, modes, meas_modes, len(configs), result.rank, 1, e["residual"])
            for e in sweep
        ],
    )
    return EXIT_OK


def cmd_make_state(spec: ExperimentSpec) -> int:
    photons = _parse_int(spec.photons, "photons", 1)
    modes = _parse_int(spec.modes, "modes", 1)
    basis = enumerate_fock_basis(photons, modes)
    state = random_density_matrix(basis, spec.seed)
    _write_json(spec.out_json, state.to_json_dict())
    return EXIT_OK


def cmd_selftest(_: ExperimentSpec) -> int:
    failures = selftest.run()
    if failures:
        raise RuntimeError(f"{len(failures)} self-check(s) failed: {', '.join(failures)}")
    print(f"all {len(selftest.CHECKS)} self-checks passed")
    return EXIT_OK


def cmd_run_spec(path: str) -> int:
    record = json.loads(Path(path).read_text())
    if isinstance(record, dict) and "spec" in record:
        record = record["spec"]
    spec = ExperimentSpec.from_json_dict(record)
    try:
        handler = COMMANDS[spec.command]
    except KeyError:
        raise ValueError(f"spec names unknown command {spec.command!r}") from None
    return handler(spec)


COMMANDS = {
    "bounds": cmd_bounds,
    "rank-scan": cmd_rank_scan,
    "min-modes": cmd_min_modes,
    "reconstruct": cmd_reconstruct,
    "make-state": cmd_make_state,
    "selftest": cmd_selftest,
}


def _add_common(
    parser: argparse.ArgumentParser, table: bool = True, summary: bool = True, seed: bool = True
) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    if table:
        parser.add_argument("--out", dest="out_csv", help="CSV output path")
    parser.add_argument("--json", dest="out_json", help="JSON output path")
    if summary:
        parser.add_argument(
            "--summary",
            dest="summary_csv",
            help="summary CSV path, one column set for every command (overwrites the file)",
        )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focktomo",
        description="Photon-counting tomography experiments with linear optics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="configuration-count and mode-count bound tables")
    p.add_argument("--photons", required=True, help="N or lo:hi")
    p.add_argument("--modes", required=True, help="M or lo:hi")
    p.add_argument("--meas-modes", help="M' or lo:hi (default: same as modes)")
    _add_common(p, summary=False, seed=False)  # bounds draws nothing

    p = sub.add_parser("rank-scan", help="grow a configuration set until complete")
    p.add_argument("--photons", required=True)
    p.add_argument("--modes", required=True)
    p.add_argument("--meas-modes")
    p.add_argument("--generator", default="haar", choices=sorted(GENERATORS))
    p.add_argument("--r-max", type=int, dest="r_max")
    p.add_argument("--tolerance-rank", type=float, dest="rank_tolerance")
    _add_common(p)

    p = sub.add_parser("min-modes", help="smallest M' with a complete single setting")
    p.add_argument("--photons", required=True, help="N or lo:hi")
    p.add_argument("--modes", required=True, help="M or lo:hi")
    p.add_argument("--generator", default="haar", choices=sorted(GENERATORS))
    p.add_argument("--meas-modes-max", type=int, dest="meas_modes_max")
    p.add_argument("--tolerance-rank", type=float, dest="rank_tolerance")
    _add_common(p)

    p = sub.add_parser("reconstruct", help="simulate measurements and reconstruct")
    p.add_argument("--state", dest="state_path", required=True, help="truth state JSON")
    p.add_argument(
        "--generator", default="haar", choices=[*sorted(GENERATORS), "newton-young"]
    )
    p.add_argument("--configs", type=int, help="number of settings (default: the bound)")
    p.add_argument("--meas-modes")
    p.add_argument(
        "--shots",
        default="0",
        help="comma-separated shot counts; 0 = exact probabilities",
    )
    p.add_argument("--efficiency", type=float, help="uniform detector efficiency")
    p.add_argument(
        "--invert-detector",
        action="store_true",
        help="undo the detector response instead of plain post-selection",
    )
    p.add_argument("--tolerance-rank", type=float, dest="rank_tolerance")
    _add_common(p)

    p = sub.add_parser("make-state", help="write a random density matrix JSON file")
    p.add_argument("--photons", required=True)
    p.add_argument("--modes", required=True)
    _add_common(p, table=False, summary=False)

    sub.add_parser("selftest", help="run the desk-scale invariant suites")

    p = sub.add_parser("run-spec", help="replay a serialized experiment spec")
    p.add_argument("spec_path")

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Copy each parsed option to the spec field of its name."""
    values = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentSpec)
        if hasattr(args, f.name)
    }
    if "shots" in values:
        try:
            values["shots"] = [int(s) for s in values["shots"].split(",")]
        except ValueError:
            raise ValueError(f"bad --shots value {args.shots!r}")
    return ExperimentSpec(**values)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run-spec":
            return cmd_run_spec(args.spec_path)
        spec = _spec_from_args(args)
        return COMMANDS[args.command](spec)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
