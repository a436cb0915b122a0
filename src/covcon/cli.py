"""Command-line surface: run experiments from a config file, emit CSV/JSON
results and an SVG log-log plot, and expose each estimator as a subcommand.

Determinism contract: every byte this module writes (CSV, JSON, SVG, config
echo) is a pure function of the run configuration — floats are rendered with
repr, JSON keys are sorted, SVG coordinates use a fixed format — so reruns
and different worker counts produce identical files.

Each subcommand handler returns its JSON document, or None when it writes
files; main alone prints the document.  Exit codes: 0 success, 2
user/validation error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import bounds, experiments, statistics
from .bounds import BoundConfig
from .errors import U64_MAX, ConfigError, ContractError, NumericalError, require_int
from .experiments import CellResult, ExperimentGrid, ScalingFit
from .linalg import DeviationReport, boundedness_ratio, operator_deviation
from .sampler import EnsembleSpec, SampleMatrix, parse_family_token, sample_ensemble

__all__ = [
    "CSV_HEADER",
    "RunConfig",
    "ResultBundle",
    "parse_config",
    "run_bundle",
    "write_bundle",
    "results_csv_text",
    "read_results_csv",
    "render_plot_svg",
    "main",
    "entry",
]

# A results CSV has one row per trial: its cell, its index, then the DeviationReport fields after n and N.
_REPORT_FIELDS = {f.name: f for f in fields(DeviationReport)}
_CSV_COLUMNS = ["family", "n", "N", "trial", *list(_REPORT_FIELDS)[2:]]
CSV_HEADER = ",".join(_CSV_COLUMNS)

# Config sections: [grid] is ExperimentGrid without its BoundConfig, which is
# [bounds]; [output] (below RunConfig) is RunConfig without its grid.
_GRID_KEYS = tuple(f.name for f in fields(ExperimentGrid) if f.name != "bound_config")
_BOUND_KEYS = tuple(f.name for f in fields(BoundConfig))
_EMIT_CHOICES = frozenset({"csv", "json", "svg"})


# --- run configuration -------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A run configuration that checks its own fields, so one built in code
    obeys the rules a parsed one does and parse_config(c.to_text()) == c."""

    grid: ExperimentGrid
    output_dir: str
    emit: frozenset
    parallelism: int | str

    def __post_init__(self) -> None:
        if not (isinstance(self.emit, frozenset) and self.emit and self.emit <= _EMIT_CHOICES):
            emit = sorted(self.emit, key=repr) if isinstance(self.emit, frozenset) else self.emit
            raise ConfigError(f"emit must be a nonempty frozenset within {sorted(_EMIT_CHOICES)}, got {emit!r}")
        if self.parallelism != "auto":
            try:
                require_int("parallelism", self.parallelism)
            except ContractError as exc:
                raise ConfigError(str(exc)) from None
        # to_text writes output_dir on one line and configparser strips values.
        if self.output_dir != self.output_dir.strip() or len(self.output_dir.splitlines()) != 1:
            raise ConfigError(f"output_dir must be one nonblank line with no surrounding whitespace, got {self.output_dir!r}")
        # Refuse a grid the scaling fit would reject before any trial runs.
        trials, ratios = self.grid.trials_per_cell, sorted({n / N for _, n, N in self.grid.cells})
        if trials < experiments.FIT_MIN_TRIALS or len(ratios) < experiments.FIT_MIN_RATIOS:
            raise ConfigError(
                f"the scaling fit needs >= {experiments.FIT_MIN_TRIALS} trials per cell and >= "
                f"{experiments.FIT_MIN_RATIOS} distinct n/N ratios; got {trials} trials and ratios {ratios}"
            )

    def to_text(self) -> str:
        g = self.grid
        cells = ", ".join(f"{fam}:{n}:{N}" for fam, n, N in g.cells)
        lines = [
            "[grid]",
            f"cells = {cells}",
            f"trials_per_cell = {g.trials_per_cell}",
            f"master_seed = {g.master_seed}",
            "",
            "[bounds]",
        ]
        lines += [f"{key} = {value!r}" for key, value in g.bound_config.to_json_dict().items()]
        lines += [
            "",
            "[output]",
            f"output_dir = {self.output_dir}",
            f"emit = {', '.join(sorted(self.emit))}",
            f"parallelism = {self.parallelism}",
            "",
        ]
        return "\n".join(lines)


_OUTPUT_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "grid")


def _parse_cell(token: str) -> tuple[str, int, int]:
    parts = token.rsplit(":", 2)
    if len(parts) != 3:
        raise ConfigError(f"cell {token!r} must have the form family:n:N")
    family, n_s, N_s = (p.strip() for p in parts)
    try:
        n, N = int(n_s), int(N_s)
    except ValueError as exc:
        raise ConfigError(f"cell {token!r}: dimensions must be integers") from exc
    return family, n, N


def parse_config(text: str) -> RunConfig:
    """Strict INI parse: unknown sections or keys are rejected, every listed
    key is required, and malformed syntax reports its line number."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    expected = {"grid": _GRID_KEYS, "bounds": _BOUND_KEYS, "output": _OUTPUT_KEYS}
    unknown_sections = set(parser.sections()) - set(expected)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    for section, keys in expected.items():
        if not parser.has_section(section):
            raise ConfigError(f"missing config section [{section}]")
        unknown = set(parser[section]) - set(keys)
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        missing = set(keys) - set(parser[section])
        if missing:
            raise ConfigError(f"missing keys in [{section}]: {sorted(missing)}")

    grid_sec, bounds_sec, out_sec = parser["grid"], parser["bounds"], parser["output"]
    try:
        cells = tuple(_parse_cell(tok) for tok in grid_sec["cells"].split(",") if tok.strip())
        trials = int(grid_sec["trials_per_cell"])
        master = int(grid_sec["master_seed"], 0)
        constants = {key: float(bounds_sec[key]) for key in _BOUND_KEYS}
    except ValueError as exc:
        raise ConfigError(f"config value error: {exc}") from exc
    bound_config = BoundConfig(**constants)
    grid = ExperimentGrid(cells, trials, master, bound_config)

    emit = frozenset(tok.strip() for tok in out_sec["emit"].split(",") if tok.strip())
    parallelism: int | str = out_sec["parallelism"]
    if parallelism != "auto":
        try:
            parallelism = int(parallelism)
        except ValueError as exc:
            raise ConfigError(f"parallelism must be 'auto' or a positive integer, got {parallelism!r}") from exc
    return RunConfig(grid=grid, output_dir=out_sec["output_dir"], emit=emit, parallelism=parallelism)


def resolve_workers(parallelism: int | str) -> int:
    """The configured worker count; "auto" is the number of CPUs this
    process may run on."""
    if parallelism == "auto":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    require_int("parallelism", parallelism)
    return parallelism


# --- serialization -----------------------------------------------------------


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def results_csv_text(results: list[CellResult]) -> str:
    """One row per trial in canonical (cell, trial) order; None as an empty field, ints via str, floats via repr."""
    lines = [CSV_HEADER]
    for res in results:
        for trial, r in enumerate(res.reports):
            values = (getattr(r, name) for name in _CSV_COLUMNS[4:])
            texts = ("" if v is None else str(v) if isinstance(v, int) else repr(float(v)) for v in values)
            lines.append(",".join([*map(str, res.cell), str(trial), *texts]))
    return "\n".join(lines) + "\n"


def _csv_value(f, text: str) -> int | float | None:
    """A results-CSV field read as DeviationReport field `f`: empty as None where that is the default,
    an int by the positive-integer rule (the seed by the unsigned 64-bit one), a float finite."""
    if text == "" and f.default is None:
        return None
    if f.type == "int":
        value = int(text)
        require_int(f.name, value, *((0, U64_MAX) if f.name == "seed" else ()))
    elif not math.isfinite(value := float(text)):  # covcon never writes one
        raise ContractError(f"{value!r} is not finite")
    return value


def read_results_csv(path) -> list[CellResult]:
    """Rebuild per-cell results from a results CSV: read_results_csv(results_csv_text(r)) == r, since repr
    round-trips floats.  Each cell's rows must read trial 0, 1, 2, ... in order, and a field that does not
    parse, a family EnsembleSpec refuses, a boundedness_ratio other than linalg.boundedness_ratio(n, N,
    max_col_norm), or a psi_hat off trial 0 (or missing there) names its line and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_COLUMNS:
            raise ContractError(f"unexpected results CSV header: {header!r}")
        grouped: dict[tuple[str, int, int], list[DeviationReport]] = {}
        for row in reader:
            if len(row) != len(_CSV_COLUMNS):
                raise ContractError(f"results CSV row has {len(row)} fields, expected {len(_CSV_COLUMNS)}")
            named = dict(zip(_CSV_COLUMNS, row))
            family, trial = named.pop("family"), named.pop("trial")
            try:
                for column, text in named.items():
                    named[column] = _csv_value(_REPORT_FIELDS[column], text)
                r = DeviationReport(**named)
                column = "family"
                name, p = parse_family_token(family)
                EnsembleSpec(family=name, n=r.n, N=r.N, seed=r.seed, p=p)
                column = "boundedness_ratio"
                if r.boundedness_ratio != (k := float(boundedness_ratio(r.n, r.N, r.max_col_norm))):
                    raise ContractError(f"{r.boundedness_ratio!r} is not boundedness_ratio(n, N, max_col_norm) = {k!r}")
                column = "psi_hat"
                if (r.psi_hat is None) == (trial == "0"):
                    raise ContractError("trial 0 has no value" if trial == "0" else f"trial {trial} has one; only trial 0 does")
            except ValueError as exc:  # ContractError included
                raise ContractError(f"results CSV line {reader.line_num}, column {column}: {exc}") from None
            reports = grouped.setdefault((family, r.n, r.N), [])
            if trial != str(len(reports)):
                raise ContractError(f"results CSV cell ({family}, {r.n}, {r.N}): trial {trial!r}, expected {len(reports)}")
            reports.append(r)
    return [CellResult(cell, tuple(rs), experiments.summarize_reports(tuple(rs))) for cell, rs in grouped.items()]


def bounds_check_json(results: list[CellResult], cfg: BoundConfig) -> str:
    """Exceedance and sandwich checks of the tall cells (n <= N) and Remark 2
    checks of the wide cells (N < n), each list in grid order."""
    tall = [res for res in results if res.cell[1] <= res.cell[2]]
    wide = [res for res in results if res.cell[1] > res.cell[2]]
    doc = {
        "config": cfg.to_json_dict(),
        "exceedance": [c.to_json_dict() for c in experiments.failure_rate(tall, cfg)],
        "sandwich": [c.to_json_dict() for c in experiments.bai_yin_sandwich(tall, cfg)],
        "remark2": [c.to_json_dict() for c in experiments.remark2_checks(wide, cfg)],
    }
    return _dump_json(doc)


# --- SVG plot ----------------------------------------------------------------

_SVG_W, _SVG_H = 800, 600
_ML, _MR, _MT, _MB = 80.0, 30.0, 40.0, 60.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_plot_svg(results: list[CellResult], fit: ScalingFit, cfg: BoundConfig) -> str:
    """Log-log scatter of per-cell mean deviation against beta = n/N, with
    the fitted power law, the deviation envelope for cfg's constants, and a
    slope-1/2 reference drawn as the single polyline element.  Axis ticks
    annotate the beta values entering the fit."""
    xs = [math.log10(b) for b in fit.beta_values]
    ys = [math.log10(res.summary.mean_deviation) for res in results]
    env = [math.log10(bounds.theorem1_rhs(cfg, 1, 1) * math.sqrt(b)) for b in fit.beta_values]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + env), max(ys + env)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - _ML - _MR)

    def py(y: float) -> float:
        return _SVG_H - _MB - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_SVG_H - _MB)}" x2="{_fmt(_SVG_W - _MR)}" '
        f'y2="{_fmt(_SVG_H - _MB)}" stroke="black"/>',
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" y2="{_fmt(_SVG_H - _MB)}" '
        f'stroke="black"/>',
        f'<text x="{_fmt(_SVG_W / 2)}" y="{_fmt(_SVG_H - 15.0)}" text-anchor="middle" '
        f'font-size="14">beta = n/N (log10)</text>',
        f'<text x="18" y="{_fmt(_SVG_H / 2)}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_fmt(_SVG_H / 2)})">mean deviation (log10)</text>',
        f'<text x="{_fmt(_SVG_W / 2)}" y="24" text-anchor="middle" font-size="15">'
        f"operator deviation vs sample shape</text>",
    ]
    for beta in sorted(set(fit.beta_values)):
        x = px(math.log10(beta))
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_SVG_H - _MB)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_SVG_H - _MB + 6.0)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_SVG_H - _MB + 22.0)}" text-anchor="middle" '
            f'font-size="11">beta={beta:.6g}</text>'
        )
    x_mid = 0.5 * (min(xs) + max(xs))
    y_mid = sum(ys) / len(ys)
    ref = [(x_lo + x_pad, y_mid + 0.5 * (x_lo + x_pad - x_mid)), (x_hi - x_pad, y_mid + 0.5 * (x_hi - x_pad - x_mid))]
    out.append(
        '<polyline fill="none" stroke="#888888" stroke-dasharray="6,4" points="'
        + " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in ref)
        + '"/>'
    )
    fit_pts = [(x, (fit.log_constant + fit.exponent * (x * math.log(10.0))) / math.log(10.0)) for x in (x_lo + x_pad, x_hi - x_pad)]
    out.append(
        '<path fill="none" stroke="#1f5fbf" stroke-width="1.5" d="'
        + "M "
        + " L ".join(f"{_fmt(px(x))} {_fmt(py(y))}" for x, y in fit_pts)
        + '"/>'
    )
    env_pts = sorted(zip(xs, env))
    out.append(
        '<path fill="none" stroke="#2c8a2c" stroke-dasharray="2,3" d="'
        + "M "
        + " L ".join(f"{_fmt(px(x))} {_fmt(py(y))}" for x, y in env_pts)
        + '"/>'
    )
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.5" fill="#b03030"/>')
    out.append(
        f'<text x="{_fmt(_SVG_W - _MR)}" y="{_fmt(_MT + 14.0)}" text-anchor="end" font-size="12">'
        f"fit slope {fit.exponent:.3f}, reference slope 0.500</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- experiment bundle -------------------------------------------------------


@dataclass(frozen=True)
class ResultBundle:
    """Every file one experiment run can emit, as text; write_bundle picks by config.emit."""

    config_text: str
    csv_text: str
    scaling_text: str
    bounds_check_text: str
    svg_text: str


def run_bundle(config: RunConfig, workers: int | None = None) -> ResultBundle:
    if workers is None:
        workers = resolve_workers(config.parallelism)
    results = experiments.run_grid(config.grid, workers=workers)
    fit = experiments.scaling_fit(results)
    cfg = config.grid.bound_config
    return ResultBundle(
        config_text=config.to_text(),
        csv_text=results_csv_text(results),
        scaling_text=_dump_json(fit.to_json_dict()),
        bounds_check_text=bounds_check_json(results, cfg),
        svg_text=render_plot_svg(results, fit, cfg),
    )


def write_bundle(bundle: ResultBundle, config: RunConfig) -> list[str]:
    """Write config.ini and the files config.emit names; returns the paths written."""
    os.makedirs(config.output_dir, exist_ok=True)
    written = []

    def put(name: str, text: str) -> None:
        path = os.path.join(config.output_dir, name)
        _write_text(path, text)
        written.append(path)

    put("config.ini", bundle.config_text)
    if "csv" in config.emit:
        put("results.csv", bundle.csv_text)
    if "json" in config.emit:
        put("scaling.json", bundle.scaling_text)
        put("bounds_check.json", bundle.bounds_check_text)
    if "svg" in config.emit:
        put("plot.svg", bundle.svg_text)
    return written


# --- subcommands -------------------------------------------------------------


def _read_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _load_bound_config(args) -> BoundConfig:
    cfg = _read_config(args.config).grid.bound_config if args.config else bounds.DEFAULT_CONFIG
    psi = args.psi if args.psi is not None else cfg.psi
    K = args.K if args.K is not None else cfg.K
    return cfg.with_hypothesis(psi, K)


def _sample(args) -> SampleMatrix:
    """The matrix of the command's spec flags."""
    family, p = parse_family_token(args.family)
    return sample_ensemble(EnsembleSpec(family=family, n=args.n, N=args.N, seed=args.seed, p=p))


def cmd_sample(args) -> None:
    A = _sample(args)  # before the open, so a refused spec leaves no file
    with open(args.out, "wb") as fh:
        np.save(fh, A.entries)


def cmd_deviation(args) -> dict:
    return operator_deviation(_sample(args)).to_json_dict()


def cmd_psi1(args) -> dict:
    value = statistics.psi1_ensemble(_sample(args), args.directions)
    return {"psi1": value, "directions": args.directions, "n": args.n, "N": args.N, "seed": args.seed}


def cmd_amnorm(args) -> dict:
    return statistics.sparse_norm_profile(_sample(args), mode=args.mode).to_json_dict()


def cmd_net(args) -> dict:
    return statistics.build_net(args.n, args.epsilon).to_json_dict()


def cmd_bounds(args) -> dict:
    cfg = _load_bound_config(args)
    reports = bounds.evaluate_all(cfg, args.n, args.N, m=args.m, B=args.B, theta=args.theta, max_col_norm=args.max_col_norm)
    return {"config": cfg.to_json_dict(), "reports": [r.to_json_dict() for r in reports]}


def cmd_experiment(args) -> None:
    config = _read_config(args.config)
    for path in write_bundle(run_bundle(config), config):
        sys.stderr.write(f"wrote {path}\n")


def cmd_fit(args) -> dict:
    return experiments.scaling_fit(read_results_csv(args.results)).to_json_dict()


def cmd_plot(args) -> None:
    results = read_results_csv(args.results)
    _write_text(args.out, render_plot_svg(results, experiments.scaling_fit(results), _load_bound_config(args)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covcon",
        description="Empirical covariance concentration: sampling, spectra, envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, spec=False, constants=False):
        """A subcommand whose -h repeats its one-line `text`; `spec` adds the
        four flags that name the matrix it draws (the seed in any int()
        base; EnsembleSpec checks each value), `constants` the three that
        set its envelope constants."""
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(handler=handler)
        if spec:
            p.add_argument("--family", required=True, help="family token, e.g. gaussian or lp_ball(1.5)")
            p.add_argument("--n", required=True, type=int)
            p.add_argument("--N", required=True, type=int)
            p.add_argument("--seed", required=True, type=lambda text: int(text, 0))
        if constants:
            p.add_argument("--config", default=None, help="read constants from a run config file")
            p.add_argument("--psi", type=float, default=None)
            p.add_argument("--K", type=float, default=None)
        return p

    p = command("sample", cmd_sample, "draw an ensemble and write its entries as a .npy file", spec=True)
    p.add_argument("--out", required=True)

    command("deviation", cmd_deviation, "spectral deviation report of an ensemble", spec=True)

    budget = f"the first {statistics.PSI_SAMPLE_COLUMNS:,} columns at most"
    p = command("psi1", cmd_psi1, f"empirical psi_1 constant over basis plus probe directions, on {budget}", spec=True)
    p.add_argument("--directions", type=int, default=experiments.PSI_PROBE_DIRECTIONS)

    p = command("amnorm", cmd_amnorm, "sparse operator norm profile A_m of an ensemble", spec=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="greedy")

    p = command("net", cmd_net, "construct a sphere net and report it as JSON")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--epsilon", required=True, type=float)

    p = command("bounds", cmd_bounds, "evaluate every applicable envelope formula", constants=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--max-col-norm", dest="max_col_norm", type=float, default=0.0)

    p = command("experiment", cmd_experiment, "run the configured grid and write the result bundle")
    p.add_argument("--config", required=True)

    p = command("fit", cmd_fit, "scaling-law fit from a results CSV")
    p.add_argument("--results", required=True)

    p = command("plot", cmd_plot, "render the log-log deviation plot from a results CSV", constants=True)
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
        if doc is not None:
            sys.stdout.write(_dump_json(doc))
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
