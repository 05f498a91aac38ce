"""Command-line surface.

Subcommands: construct (model tables), coherent (normalized coherent-state
table plus verification report), verify (identity suite over a list of
alphas), generate (ODE-integrated superpotential against its closed form),
and fit (potential-expansion fitting from a CSV sample file).

Exit codes: 0 success or all checks passed, 1 verification or convergence
failure, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import os
import sys
import warnings

import numpy as np

from ._format import fmt_float, table_body
from .errors import AnhoscError, InadmissibleAlphaError, InvalidParameterError, TruncationError
from .families import FAMILIES, family_of
from .fit import PotentialSample, fit_expansion
from .generator import (
    FORM_CONSTANT,
    FORMS,
    GeneratingSeries,
    closed_form_from_series,
    superpotential_from_series,
)
from .models import OscillatorModel, closed_form_potential, describe
from .models import eval_superpotential as model_superpotential
from .numerics import Grid, make_grid
from .states import (
    GridFields,
    Workspace,
    admissible_bound,
    auto_grid,
    grid_fields,
    is_admissible,
    require_admissible,
    require_grid_in_domain,
)
from .models import eval_superpotential_derivative  # noqa: F401  bench/spans.py wraps it by name
from .states import normalize  # noqa: F401  not called here; bench/spans.py wraps it by name
from .verify import Tolerances, format_complex, verify_coherent, verify_model

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2

_fmt = fmt_float


def parse_complex(text: str) -> complex:
    """Parse an alpha written 'a', 'a+bi' or 'a-bi' (no whitespace,
    locale-independent), with finite real and imaginary parts."""
    cleaned = text.strip()
    if not cleaned or " " in cleaned:
        raise InvalidParameterError(f"malformed complex number {text!r}")
    # Only a trailing i is the imaginary unit: the i of inf or nan is not.
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise InvalidParameterError(f"malformed complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise InvalidParameterError(f"alpha must be finite, got {text!r}")
    return value


def _parse_params(items: list[str] | None) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise InvalidParameterError(f"expected --param name=value, got {item!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise InvalidParameterError(f"non-numeric value in {item!r}") from exc
    return params


#: The family records by their --family spelling, in the order --help lists them.
_CLI_FAMILIES = {family.cli_name: family for family in FAMILIES.values()}


def _build_model(name: str, params: dict[str, float]) -> OscillatorModel:
    if name not in _CLI_FAMILIES:
        raise InvalidParameterError(
            f"unknown family {name!r}; expected one of {sorted(_CLI_FAMILIES)}"
        )
    expected = _CLI_FAMILIES[name].cli_params
    missing = [key for key in expected if key not in params]
    if missing:
        raise InvalidParameterError(f"family {name!r} needs --param {missing[0]}=...")
    extra = [key for key in params if key not in expected]
    if extra:
        raise InvalidParameterError(f"unknown parameter {extra[0]!r} for family {name!r}")
    return _CLI_FAMILIES[name].make(*(params[key] for key in expected))


def _explicit_grid(args, model: OscillatorModel) -> Grid | None:
    """The --qmin/--qmax grid inside the model's domain, or None when neither
    is given and the caller chooses an automatic grid."""
    if args.qmin is None and args.qmax is None:
        return None
    if args.qmin is None or args.qmax is None:
        raise InvalidParameterError("--qmin and --qmax must be given together")
    grid = make_grid(args.qmin, args.qmax, args.n)
    require_grid_in_domain(model, grid)
    return grid


def _checked_fields(model: OscillatorModel, grid: Grid) -> GridFields:
    """grid_fields on an explicit grid for the checks, refused by name where
    x or x' overflows float64 (inf, or NaN from inf / inf in a kernel): the
    checks' products would turn it into NaN, and numpy's warnings, before
    refusing the samples. construct takes grid_fields as it is, and warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        fields = grid_fields(model, grid)
    x, xp = fields.x, fields.xp
    # min and max carry a NaN through, and allocate no full-size mask.
    if not np.isfinite([x.min(), x.max(), xp.min(), xp.max()]).all():
        raise TruncationError("superpotential overflows float64 on the grid; narrow the grid")
    return fields


def _model_header_lines(model: OscillatorModel) -> list[str]:
    consts = [f"e0={_fmt(model.e0)}"]
    if model.d_const is not None:
        consts.append(f"d={_fmt(model.d_const)}")
    consts += [f"{label}={_fmt(getattr(model.params, field))}"
               for label, field in family_of(model).header]
    return [
        f"# model: {describe(model)}",
        "# constants: " + " ".join(consts),
        f"# domain: ({_fmt(model.q_lower)}, {_fmt(model.q_upper)})",
    ]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_table(args, header_lines: list[str], columns: list[str], data) -> None:
    """The table at args.out, and with --emit plotscript a gnuplot script
    for it at args.out + ".gp"."""
    head = "\n".join([*header_lines, ",".join(columns)]) + "\n"
    with open(args.out, "wb") as handle:
        handle.write(head.encode("utf-8"))
        handle.writelines(table_body(data))
    if args.emit != "plotscript":
        return
    base = os.path.basename(args.out)
    lines = [
        "# gnuplot script for " + base,
        'set datafile separator ","',
        "set grid",
        'set xlabel "q"',
        "plot " + ", \\\n     ".join(
            f'"{base}" using 1:{idx} with lines title "{name}"'
            for idx, name in enumerate(columns[1:], start=2)
        ),
    ]
    _write_text(args.out + ".gp", "\n".join(lines) + "\n")


def cmd_construct(args) -> int:
    model = _build_model(args.family, _parse_params(args.param))
    grid = _explicit_grid(args, model)
    if grid is None and not is_admissible(model, 0.0):
        b = admissible_bound(model)
        raise InadmissibleAlphaError(
            f"ground state not normalizable (coherent states need sqrt(2) Re(alpha) in "
            f"({b.inf_re_alpha:.6g}, {b.sup_re_alpha:.6g})); give --qmin and --qmax"
        )
    fields = grid_fields(model, auto_grid(model, n=args.n) if grid is None else grid)
    psi0 = fields.sample().values
    if grid is not None:  # warn where coherent and verify refuse the grid
        try:
            fields.normalized()
        except AnhoscError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    v = closed_form_potential(model, fields.q)
    columns = ["q", "x", "dx_dq", "v_minus_e0", "psi0"]
    header = ["# anhosc construct"] + _model_header_lines(model)
    _write_table(args, header, columns, (fields.q, fields.x, fields.xp, v, psi0))
    return _EXIT_OK


def cmd_coherent(args) -> int:
    model = _build_model(args.family, _parse_params(args.param))
    alpha = parse_complex(args.alpha)
    tol = _tolerances(args)  # a bad --tol leaves no table behind
    explicit = _explicit_grid(args, model)
    grid = explicit or auto_grid(model, alpha=alpha, n=args.n)
    require_admissible(model, alpha)
    fields = grid_fields(model, grid) if explicit is None else _checked_fields(model, grid)
    # The table's samples and the checks' work arrays share one workspace.
    # The checks only read the samples; they run first, so a refusal writes no file.
    workspace = Workspace(grid.n)
    sampled, norm = fields.normalized(alpha, workspace=workspace)
    report = verify_coherent(model, alpha, grid, tol, fields=fields, normalized=sampled,
                             workspace=workspace)
    values = sampled.values
    columns = ["q", "psi_re", "psi_im", "abs2"]
    header = ["# anhosc coherent"] + _model_header_lines(model)
    header.append(f"# alpha: {format_complex(alpha)}")
    header.append(f"# norm_before_scaling: {_fmt(norm)}")
    data = (fields.q, values.real, values.imag, np.abs(values) ** 2)
    _write_table(args, header, columns, data)
    _write_text(args.report, report.to_text())
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def _tolerances(args) -> Tolerances:
    tol = Tolerances()
    overrides = {}
    for item in args.tol or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidParameterError(f"expected --tol name=value, got {item!r}")
        if key not in tol.__dataclass_fields__:
            raise InvalidParameterError(f"unknown tolerance {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError as exc:
            raise InvalidParameterError(f"non-numeric tolerance in {item!r}") from exc
    return dataclasses.replace(tol, **overrides) if overrides else tol


def cmd_verify(args) -> int:
    model = _build_model(args.family, _parse_params(args.param))
    alphas = [parse_complex(item) for item in args.alphas.split(",") if item]
    if not alphas:
        raise InvalidParameterError("--alphas must list at least one value")
    tol = _tolerances(args)
    explicit = _explicit_grid(args, model)
    # One record per distinct grid: every alpha on an explicit grid shares it.
    fields = None if explicit is None else _checked_fields(model, explicit)
    sections: list[str] = []
    all_passed = True
    if is_admissible(model, 0.0):
        if fields is None:
            fields = grid_fields(model, auto_grid(model, n=args.n))
        report = verify_model(model, fields.grid, tol, fields=fields)
        all_passed &= report.passed
        sections.append(report.to_text())
    else:
        sections.append(f"model: {describe(model)}\nalpha: none\n"
                        "result: skipped (ground state not normalizable)\n")
    # Every grid of the job has args.n points, so one workspace serves every
    # alpha; its arrays are allocated at the first admissible one.
    workspace = Workspace(args.n)
    for alpha in alphas:
        head = f"model: {describe(model)}\nalpha: {format_complex(alpha)}\n"
        if not is_admissible(model, alpha):
            sections.append(head + "result: skipped (inadmissible)\n")
            continue
        # A failing alpha must not abort the sweep: record it, exit 1.
        try:
            if explicit is None:
                grid = auto_grid(model, alpha=alpha, n=args.n)
                if fields is None or grid != fields.grid:
                    fields = grid_fields(model, grid)
            rep = verify_coherent(model, alpha, fields.grid, tol, fields=fields,
                                  workspace=workspace)
        except AnhoscError as exc:
            all_passed = False
            sections.append(head + f"result: error ({exc})\n")
            continue
        all_passed &= rep.passed
        sections.append(rep.to_text())
    _write_text(args.report, "---\n".join(sections))
    return _EXIT_OK if all_passed else _EXIT_CHECK_FAILED


#: The --param names of generate: GeneratingSeries' fields after form.
_SERIES_PARAMS = [field.name for field in dataclasses.fields(GeneratingSeries)[1:]]


def cmd_generate(args) -> int:
    params = _parse_params(args.param)
    extra = [key for key in params if key not in _SERIES_PARAMS]
    if extra:
        raise InvalidParameterError(f"unknown parameter {extra[0]!r} for form {args.form!r}")
    series = GeneratingSeries(args.form, **params)
    grid = make_grid(0.0, args.qmax, args.n)
    numeric = superpotential_from_series(series, grid)
    header = ["# anhosc generate", f"# form: {args.form}"]
    header.append(
        "# coefficients: "
        + " ".join(f"{k}={_fmt(params[k])}" for k in sorted(params))
    )
    columns = ["q", "x_numeric"]
    q = grid.points()
    data = [q, numeric.values]
    try:
        model = closed_form_from_series(series)
    except AnhoscError as exc:
        header.append(f"# closed_form: unavailable ({exc})")
    else:
        header.append(f"# closed_form: {describe(model)}")
        closed = model_superpotential(model, q)
        if series.form == FORM_CONSTANT:
            closed = closed + series.initial_value()
        max_dev = float(np.max(np.abs(numeric.values - closed)))
        header.append(f"# max_deviation: {_fmt(max_dev)}")
        columns.append("x_closed")
        data.append(closed)
    _write_table(args, header, columns, data)
    return _EXIT_OK


def _read_samples(path: str) -> list[PotentialSample]:
    samples: list[PotentialSample] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.split(",")
                if len(parts) != 2:
                    raise InvalidParameterError(
                        f"{path}:{line_no}: expected 'r,v', got {text!r}"
                    )
                try:
                    samples.append(PotentialSample(float(parts[0]), float(parts[1])))
                except InvalidParameterError as exc:  # a ValueError: numbers PotentialSample refuses
                    raise InvalidParameterError(f"{path}:{line_no}: {exc}") from exc
                except ValueError as exc:
                    raise InvalidParameterError(
                        f"{path}:{line_no}: non-numeric row {text!r}"
                    ) from exc
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from exc
    return samples


def cmd_fit(args) -> int:
    samples = _read_samples(args.data)
    result = fit_expansion(samples, order=args.order)
    lines = [
        f"data: {args.data}",
        f"order: {args.order}",
        f"samples: {len(samples)}",
        "params:",
        f"  r_e: {_fmt(result.params.r_e)}",
        f"  s: {_fmt(result.params.s)}",
        f"  c0: {_fmt(result.params.c0)}",
    ]
    for idx, c in enumerate(result.params.c_n, start=1):
        lines.append(f"  c{idx}: {_fmt(c)}")
    lines += [
        f"equilibrium: {_fmt(result.params.r_e * (result.params.s + 1.0))}",
        f"rss: {_fmt(result.rss)}",
        f"iterations: {result.iterations}",
        f"converged: {'true' if result.converged else 'false'}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return _EXIT_OK if result.converged else _EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anhosc",
        description="Anharmonic-oscillator superpotentials, coherent states, "
        "and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, help="|".join(_CLI_FAMILIES))
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        p.add_argument("--qmin", type=float, default=None)
        p.add_argument("--qmax", type=float, default=None)
        p.add_argument("--n", type=int, default=4001)

    p_construct = sub.add_parser("construct", help="emit q, x, x', V-E0, psi0 table")
    add_model_flags(p_construct)
    p_construct.add_argument("--out", default="construct.csv")
    p_construct.set_defaults(func=cmd_construct)

    p_coherent = sub.add_parser("coherent", help="emit normalized coherent state and report")
    add_model_flags(p_coherent)
    p_coherent.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p_coherent.add_argument("--alpha", required=True, help="complex, e.g. 0.1+0.2i")
    p_coherent.add_argument("--out", default="coherent.csv")
    p_coherent.add_argument("--report", default="coherent_report.txt")
    p_coherent.set_defaults(func=cmd_coherent)

    p_verify = sub.add_parser("verify", help="run the identity suite for a list of alphas")
    add_model_flags(p_verify)
    p_verify.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p_verify.add_argument("--alphas", required=True, help="comma list, e.g. 0,0.1,0.1+0.2i")
    p_verify.add_argument("--report", default="verify_report.txt")
    p_verify.set_defaults(func=cmd_verify)

    p_generate = sub.add_parser("generate", help="integrate dx/dq = -f(x) and compare")
    p_generate.add_argument("--form", required=True, help="|".join(FORMS))
    p_generate.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_generate.add_argument("--qmax", type=float, default=5.0)
    p_generate.add_argument("--n", type=int, default=5001)
    p_generate.add_argument("--out", default="generate.csv")
    p_generate.set_defaults(func=cmd_generate)

    # Only the table-writing subcommands take --emit; verify writes no table.
    for p in (p_construct, p_coherent, p_generate):
        p.add_argument("--emit", choices=["csv", "plotscript"], default="csv")

    p_fit = sub.add_parser("fit", help="fit the potential expansion to r,v samples")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--order", type=int, default=0)
    p_fit.add_argument("--out", default="fit.txt")
    p_fit.set_defaults(func=cmd_fit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one per process serves every
    # main() call; building it costs about as much as a small job.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (AnhoscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def _warning_line(message, category, *_) -> str:
    return f"warning: {category.__name__}: {message}\n"


def app() -> None:
    # The command prints each warning as one line, without the source
    # location, which moves with every edit and install of the package.
    warnings.formatwarning = _warning_line
    raise SystemExit(main())


if __name__ == "__main__":
    app()
