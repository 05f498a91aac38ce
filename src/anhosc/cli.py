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
import contextlib
import dataclasses
import functools
import itertools
import os
import stat
import sys
import warnings
from typing import Iterable

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
    Workspace,
    admissible_bound,
    auto_grid,
    auto_grid_overflow,
    grid_fields,
    is_admissible,
    require_admissible,
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


def _parse_params(
    items: list[str] | None, flag: str = "--param", noun: str = "value"
) -> dict[str, float]:
    """The NAME=VALUE items of a repeatable flag as floats by name;
    InvalidParameterError for a malformed item, a name given twice or a
    value that is not a number (a "non-numeric {noun}")."""
    pairs: dict[str, float] = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise InvalidParameterError(f"expected {flag} name=value, got {item!r}")
        if key in pairs:
            raise InvalidParameterError(f"{flag} {key} given more than once")
        try:
            pairs[key] = float(value)
        except ValueError as exc:
            raise InvalidParameterError(f"non-numeric {noun} in {item!r}") from exc
    return pairs


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


def _explicit_grid(args) -> Grid | None:
    """The --qmin/--qmax grid, or None when neither is given and the caller
    chooses an automatic grid. grid_fields() refuses one outside the domain."""
    if args.qmin is None and args.qmax is None:
        return None
    if args.qmin is None or args.qmax is None:
        raise InvalidParameterError("--qmin and --qmax must be given together")
    return make_grid(args.qmin, args.qmax, args.n)


def _auto_fields(model: OscillatorModel, n: int, alpha: complex = 0.0, fields=None):
    """grid_fields() on auto_grid()'s grid, or fields when it holds that grid.
    Its float64 refusal names the model: the user gave no grid to narrow."""
    grid = auto_grid(model, alpha=alpha, n=n)
    if fields is not None and fields.grid == grid:
        return fields
    try:
        return grid_fields(model, grid)
    except TruncationError as exc:
        raise auto_grid_overflow(model) from exc


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


def _write(outputs: dict[str, Iterable[bytes]]) -> None:
    """Write each path's chunks in turn over its old bytes, every path opened
    before any is written, and cut a regular file to the length written, or
    where a write failed. When an open or a write fails, the files this run
    created are removed: a refused run leaves no new file and no changed one."""
    created = [path for path in outputs if not os.path.exists(path)]
    with contextlib.ExitStack() as stack:
        try:
            handles = [stack.enter_context(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666),
                                                "wb")) for path in outputs]
            for handle, chunks in zip(handles, outputs.values()):
                try:
                    handle.writelines(chunks)
                    if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # not a device or a pipe
                        handle.truncate()
                except BaseException:
                    with contextlib.suppress(OSError):  # where the OS's writes ended
                        handle.raw.truncate()
                    raise
                handle.close()
        except BaseException:
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def _table(args, header_lines: list[str], columns: list[str], data) -> dict[str, Iterable[bytes]]:
    """The outputs of a table for _write(): the table at args.out, and with
    --emit plotscript a gnuplot script for it at args.out + ".gp"."""
    head = "\n".join([*header_lines, ",".join(columns)]) + "\n"
    outputs = {args.out: itertools.chain([head.encode()], table_body(data))}
    if args.emit != "plotscript":
        return outputs
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
    outputs[args.out + ".gp"] = [("\n".join(lines) + "\n").encode()]
    return outputs


def cmd_construct(args) -> int:
    model = _build_model(args.family, _parse_params(args.param))
    grid = _explicit_grid(args)
    if grid is None and not is_admissible(model, 0.0):
        b = admissible_bound(model)
        raise InadmissibleAlphaError(
            f"ground state not normalizable (coherent states need sqrt(2) Re(alpha) in "
            f"({b.inf_re_alpha:.6g}, {b.sup_re_alpha:.6g})); give --qmin and --qmax"
        )
    fields = _auto_fields(model, args.n) if grid is None else grid_fields(model, grid)
    psi0 = fields.sample().values
    v = closed_form_potential(model, fields.q)
    if not np.isfinite([v.min(), v.max()]).all():  # s = inf for a gkf c0 near 5e-324
        raise TruncationError("closed-form potential leaves float64 range on the grid")
    if grid is not None:  # warn where coherent and verify refuse the grid
        try:
            fields.normalized()
        except AnhoscError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    columns = ["q", "x", "dx_dq", "v_minus_e0", "psi0"]
    header = ["# anhosc construct"] + _model_header_lines(model)
    _write(_table(args, header, columns, (fields.q, fields.x, fields.xp, v, psi0)))
    return _EXIT_OK


def cmd_coherent(args) -> int:
    model = _build_model(args.family, _parse_params(args.param))
    alpha = parse_complex(args.alpha)
    tol = _tolerances(args)  # a bad --tol leaves no table behind
    tables = [args.out, args.out + ".gp"] if args.emit == "plotscript" else [args.out]
    if os.path.realpath(args.report) in map(os.path.realpath, tables):
        raise InvalidParameterError(
            f"--report {args.report!r} names an output of --out {args.out!r}")
    explicit = _explicit_grid(args)
    fields = grid_fields(model, explicit) if explicit else _auto_fields(model, args.n, alpha)
    grid = fields.grid
    require_admissible(model, alpha)
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
    _write({**_table(args, header, columns, data), args.report: [report.to_text().encode()]})
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def _tolerances(args) -> Tolerances:
    overrides = _parse_params(args.tol, "--tol", "tolerance")
    unknown = [key for key in overrides if key not in Tolerances.__dataclass_fields__]
    if unknown:
        raise InvalidParameterError(f"unknown tolerance {unknown[0]!r}")
    return Tolerances(**overrides)


def cmd_verify(args) -> int:
    model = _build_model(args.family, _parse_params(args.param))
    alphas = [parse_complex(item) for item in args.alphas.split(",") if item]
    if not alphas:
        raise InvalidParameterError("--alphas must list at least one value")
    tol = _tolerances(args)
    explicit = _explicit_grid(args)
    # One record per distinct grid: every alpha on an explicit grid shares it.
    fields = None if explicit is None else grid_fields(model, explicit)
    sections: list[str] = []
    all_passed = True
    name = describe(model)
    if is_admissible(model, 0.0):
        if fields is None:
            fields = _auto_fields(model, args.n)
        report = verify_model(model, fields.grid, tol, fields=fields)
        all_passed &= report.passed
        sections.append(report.to_text())
    else:
        sections.append(f"model: {name}\nalpha: none\n"
                        "result: skipped (ground state not normalizable)\n")
    # Every grid of the job has args.n points, so one workspace serves every
    # alpha; its arrays are allocated at the first admissible one.
    workspace = Workspace(args.n)
    for alpha in alphas:
        head = f"model: {name}\nalpha: {format_complex(alpha)}\n"
        # auto_grid or verify_coherent refuses an inadmissible alpha: skipped, not failed.
        try:
            if explicit is None:
                fields = _auto_fields(model, args.n, alpha, fields)
            rep = verify_coherent(model, alpha, fields.grid, tol, fields=fields,
                                  workspace=workspace)
        except InadmissibleAlphaError:
            sections.append(head + "result: skipped (inadmissible)\n")
            continue
        except AnhoscError as exc:
            all_passed = False
            sections.append(head + f"result: error ({exc})\n")
            continue
        all_passed &= rep.passed
        sections.append(rep.to_text())
    _write({args.report: ["---\n".join(sections).encode()]})
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
        with np.errstate(all="ignore"):  # c1/c2 overflows for a Wei Hua c2 near 5e-324
            closed = model_superpotential(model, q)
        if not np.isfinite([closed.min(), closed.max()]).all():  # inf * 0 there
            raise TruncationError(
                f"superpotential of {describe(model)} leaves float64 range on the grid")
    except AnhoscError as exc:
        header.append(f"# closed_form: unavailable ({exc})")
    else:
        header.append(f"# closed_form: {describe(model)}")
        if series.form == FORM_CONSTANT:
            closed = closed + series.initial_value()
        max_dev = float(np.max(np.abs(numeric.values - closed)))
        header.append(f"# max_deviation: {_fmt(max_dev)}")
        columns.append("x_closed")
        data.append(closed)
    _write(_table(args, header, columns, data))
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
    _write({args.out: [("\n".join(lines) + "\n").encode()]})
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
