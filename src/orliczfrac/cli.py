"""Command-line front end: flat key=value configs, CSV/summary artifacts.

Config format: one `key = value` per line, `#` starts a comment. The growth
function grammar is

    expr := power(P) | power_log(P) | power_abslog(P)
          | max(expr, expr, ...) | sum(W*expr, W*expr, ...)
          | compose(expr, expr)

and a right-hand side is `zero`, `sin` or `constant(C)`; P, W and C are
signed numeric literals. A spec is parsed as a Python expression whose tree
may hold only these calls and literals; it is never evaluated.

Invocation: `orliczfrac <command> --config <path> [--out <dir>]`. The
command must match the config's `command` key. Exit status: 0 success,
1 validation failure, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ConfigError,
    InvalidParameterError,
    NumericOverflowError,
    OrliczFracError,
    ToleranceNotMetError,
)
from .grid import GridFunction
from .limit_density import limit_density, tilde_eval
from .limits import bbm_curve, poincare_check
from .orlicz import (
    OrliczFunction,
    compose,
    make_combination,
    make_power,
    make_power_abslog,
    make_power_log,
    verify_orlicz,
)
from .properties import (
    inequality_suite,
    luxemburg_consistency,
    random_zero_trace,
    transform_suite,
)
from .solver import DirichletProblem, gamma_run, solve

_COMMANDS = ("tilde", "bbm", "poincare", "solve", "gamma", "check")

_POWERS = {"power": make_power, "power_log": make_power_log,
           "power_abslog": make_power_abslog}
_RHS = {"zero": 0.0, "sin": lambda x: np.sin(np.pi * x)}


def _fmt(x):
    """``x`` with 17 significant digits. Every number of an output file
    passes here, so a non-finite one fails the run before any file holds
    it."""
    if not np.isfinite(x):
        raise NumericOverflowError(f"non-finite result {x}")
    return f"{x:.17g}"


def _tree(spec):
    """The expression tree of a spec: parsed as Python, never evaluated."""
    try:
        return ast.parse(spec.strip(), mode="eval").body
    except (SyntaxError, MemoryError, RecursionError) as exc:
        # the parser gives up on deep nesting with one of the last two
        reason = getattr(exc, "msg", "nested too deeply")
        raise InvalidParameterError(f"invalid spec: {reason}") from None


def _head(node):
    """The name that a keyword-free call `name(...)` calls, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords):
        return node.func.id
    return None


def _number(node):
    """The value of a finite int or float literal, optionally signed."""
    sign = 1.0
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.UAdd, ast.USub))):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and abs(node.value) <= sys.float_info.max):
        return sign * float(node.value)
    raise InvalidParameterError(
        f"expected a finite number, got {ast.unparse(node)!r}")


def _growth(node) -> OrliczFunction:
    """The growth function that a spec tree of the grammar describes."""
    head = _head(node)
    args = node.args if head else ()
    if head in _POWERS and len(args) == 1:
        return _POWERS[head](_number(args[0]))
    if head == "max":
        return make_combination("max", [_growth(a) for a in args])
    if head == "sum" and all(isinstance(a, ast.BinOp)
                             and isinstance(a.op, ast.Mult) for a in args):
        weights = [_number(a.left) for a in args]
        return make_combination("sum", [_growth(a.right) for a in args],
                                weights)
    if head == "compose" and len(args) == 2:
        return compose(_growth(args[0]), _growth(args[1]))
    if head in (None, "sum", "compose", *_POWERS):
        raise InvalidParameterError(
            f"not in the growth grammar: {ast.unparse(node)!r}")
    raise InvalidParameterError(f"unknown growth function {head!r}")


@lru_cache(maxsize=32)
def parse_growth(text: str) -> OrliczFunction:
    return _growth(_tree(text))


def _parse_rhs(text):
    """0.0, a float or a callable for a `zero | sin | constant(C)` spec."""
    node = _tree(text)
    if isinstance(node, ast.Name) and node.id in _RHS:
        return _RHS[node.id]
    if _head(node) == "constant" and len(node.args) == 1:
        return _number(node.args[0])
    raise InvalidParameterError(f"unknown rhs spec {text.strip()!r}")


@dataclass
class ExperimentConfig:
    command: str
    g_spec: str = "power(2)"
    n: int = 1
    s: Optional[float] = None
    s_list: Tuple[float, ...] = ()
    domain: Tuple[float, float] = (-1.0, 1.0)
    nodes: int = 257
    rhs_spec: str = "constant(1)"
    a_list: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    scaling: str = "bbm_scaled"
    seed: int = 0
    count: int = 20
    out: str = ""

    def growth(self) -> OrliczFunction:
        return parse_growth(self.g_spec)

    def rhs(self):
        return _parse_rhs(self.rhs_spec)


def _parse_floats(value, count=None):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    vals = tuple(float(p) for p in parts)
    if count is not None and len(vals) != count:
        raise ValueError(f"need exactly {count} comma-separated values")
    if not vals:
        raise ValueError("need at least one comma-separated value")
    return vals


def _one_of(convert, allowed, message):
    """Converter: `convert` the text, then reject values not in `allowed`."""
    def check(text):
        value = convert(text)
        if value not in allowed:
            raise ValueError(message.format(value))
        return value
    return check


def _at_least(low, name):
    def check(text):
        value = int(text)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        return value
    return check


def _order(text):
    """The key ``s``: one order in (0, 1], s = 1 the local problem."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {value}")
    return value


def _orders(text):
    """The key ``s_list``: orders in (0, 1). Each command checks their
    order itself, as ``poincare`` allows repeats."""
    values = _parse_floats(text)
    for value in values:
        if not 0.0 < value < 1.0:
            raise ValueError(f"s_list entries must be in (0, 1), got {value}")
    return values


def _domain(text):
    a, b = _parse_floats(text, 2)
    if not a < b:
        raise ValueError("domain must satisfy left < right")
    return a, b


def _spec(parse):
    """Converter that keeps a spec's text once `parse` accepts it, so that
    its errors carry the line number of its key."""
    def check(text):
        parse(text)
        return text
    return check


# config key -> (ExperimentConfig field, converter that validates the value)
_KEYS = {
    "command": ("command", _one_of(str, _COMMANDS, "unknown command {!r}")),
    "g": ("g_spec", _spec(parse_growth)),
    "n": ("n", _one_of(int, (1, 2, 3), "n must be 1, 2 or 3")),
    "s": ("s", _order),
    "s_list": ("s_list", _orders),
    "domain": ("domain", _domain),
    "nodes": ("nodes", _at_least(2, "nodes")),
    "rhs": ("rhs_spec", _spec(_parse_rhs)),
    "a_list": ("a_list", _parse_floats),
    "scaling": ("scaling", _one_of(str, ("bbm_scaled", "unscaled"),
                                   "scaling must be bbm_scaled|unscaled")),
    "seed": ("seed", _at_least(0, "seed")),
    "count": ("count", _at_least(1, "count")),
    "out": ("out", str),
}


def parse_config(text: str,
                 command: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a flat key=value config; errors carry line numbers.
    Given ``command``, the config's ``command`` key must name it."""
    errors = []
    fields = {}
    first = {}  # the line of every key read, valid or not
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        try:
            if not eq:
                raise ValueError(f"expected key = value, got {raw.strip()!r}")
            if key in first:
                raise ValueError(f"key {key!r} given twice (first on line "
                                 f"{first[key]})")
            first[key] = lineno
            if key not in _KEYS:
                raise ValueError(f"unknown key {key!r}")
            field, convert = _KEYS[key]
            fields[field] = convert(value)
        except (ValueError, OrliczFracError) as exc:
            errors.append((lineno, str(exc)))
    if "command" not in first:
        errors.append((0, "missing required key 'command'"))
    elif command is not None and fields.get("command", command) != command:
        errors.append((first["command"], f"config command "
                       f"{fields['command']!r} does not match CLI command "
                       f"{command!r}"))
    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(**fields)
    if not cfg.out:
        cfg.out = cfg.command
    return cfg


def _write(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def _run_tilde(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    G = cfg.growth()
    density = limit_density(G, cfg.n)
    lines = ["a,tilde_quadrature,tilde_closed_form,rel_diff"]
    for a in cfg.a_list:
        quad = tilde_eval(G, cfg.n, a)
        if density.backing == "closed_form":
            closed = density.value(a)
            denom = max(abs(closed), 1e-300)
            lines.append(f"{_fmt(a)},{_fmt(quad)},{_fmt(closed)},"
                         f"{_fmt(abs(quad - closed) / denom)}")
        else:
            lines.append(f"{_fmt(a)},{_fmt(quad)},,")
    return [_write(out_dir / f"{cfg.out}.csv", lines)]


def _run_bbm(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    G = cfg.growth()
    s_list = cfg.s_list or (0.9, 0.95, 0.99)
    u = GridFunction.hat(cfg.domain[0], cfg.domain[1], cfg.nodes)
    curve = bbm_curve(G, u, s_list)
    lines = ["s,scaled_modular,target,rel_gap"]
    for s, y in curve.entries:
        gap = abs(y - curve.target) / max(abs(curve.target), 1e-300)
        lines.append(f"{_fmt(s)},{_fmt(y)},{_fmt(curve.target)},{_fmt(gap)}")
    lines.append(f"EXTRAPOLATED,{_fmt(curve.extrapolated_limit)},"
                 f"{_fmt(curve.target)},{_fmt(curve.rel_gap)}")
    return [_write(out_dir / f"{cfg.out}.csv", lines)]


def _run_poincare(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    G = cfg.growth()
    s_list = cfg.s_list or ((cfg.s,) if cfg.s is not None else (0.3, 0.6, 0.9))
    rng = np.random.default_rng(cfg.seed)
    funcs = [random_zero_trace(rng, cfg.domain[0], cfg.domain[1], cfg.nodes,
                               amplitude=rng.uniform(0.2, 2.0))
             for _ in range(cfg.count)]
    # one report per order for each function, then one row per order
    per_function = [poincare_check(G, s_list, u) for u in funcs]
    lines = ["s,max_ratio,budget,ok"]
    all_ok = True
    for s, reports in zip(s_list, zip(*per_function)):
        worst = max(reports, key=lambda r: r.ratio)
        ok = all(r.within_budget for r in reports)
        all_ok &= ok
        lines.append(f"{_fmt(s)},{_fmt(worst.ratio)},{_fmt(worst.budget)},"
                     f"{int(ok)}")
    path = _write(out_dir / f"{cfg.out}.csv", lines)
    if not all_ok:
        raise ToleranceNotMetError("Poincare ratio exceeded its budget")
    return [path]


def _run_solve(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    if cfg.s is None:
        raise InvalidParameterError("solve needs the key 's'")
    problem = DirichletProblem(
        omega=cfg.domain, rhs=cfg.rhs(), G=cfg.growth(), s=cfg.s,
        scaling=cfg.scaling, mesh_nodes=cfg.nodes)
    result = solve(problem)
    u_path = _write(out_dir / f"{cfg.out}_u.csv",
                    result.u.to_csv().splitlines())
    summary = _write(out_dir / f"{cfg.out}_summary.txt", [
        f"energy={_fmt(result.energy)}",
        f"iterations={result.iterations}",
        f"grad_norm={_fmt(result.grad_norm)}",
        f"weak_residual={_fmt(result.weak_residual)}",
        f"converged={int(result.converged)}"])
    if not result.converged:
        raise ToleranceNotMetError(
            f"solver did not converge: {result.message}",
            achieved=result.energy)
    return [u_path, summary]


def _run_gamma(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    s_list = cfg.s_list or (0.6, 0.8, 0.9, 0.99)
    template = DirichletProblem(
        omega=cfg.domain, rhs=cfg.rhs(), G=cfg.growth(), s=s_list[0],
        scaling="bbm_scaled", mesh_nodes=cfg.nodes)
    report = gamma_run(template, s_list)
    lines = ["s,lux_gap,energy_gap,midpoint"]
    for e in report.entries:
        lines.append(f"{_fmt(e.s)},{_fmt(e.lux_gap)},{_fmt(e.energy_gap)},"
                     f"{_fmt(e.midpoint)}")
    lines.append(f"LOCAL,0,0,{_fmt(report.local_midpoint)}")
    return [_write(out_dir / f"{cfg.out}.csv", lines)]


def _run_check(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    G = cfg.growth()
    report = verify_orlicz(G)
    rows = [(c.passed, f"screening {name}" + (
                "" if c.passed else f" ({c.detail} at x={c.worst_x:.6g})"))
            for name, c in (("H1", report.h1), ("H2", report.h2),
                            ("H3", report.h3))]
    sampled = (inequality_suite(G, n_samples=cfg.count * 10, seed=cfg.seed)
               + transform_suite(G, n_functions=max(2, cfg.count // 4),
                                 node_count=min(cfg.nodes, 129),
                                 seed=cfg.seed))
    rows += [(r.passed, f"{r.name} ({r.violations}/{r.samples} violations)")
             for r in sampled]
    rows += [(r.passed, r.name) for r in luxemburg_consistency(G, seed=cfg.seed)]
    lines = [f"{'PASS' if passed else 'FAIL'} {text}" for passed, text in rows]
    path = _write(out_dir / f"{cfg.out}.txt", lines)
    print(*lines, sep="\n")
    failures = sum(not passed for passed, _ in rows)
    if failures:
        raise ToleranceNotMetError(f"{failures} property checks failed")
    return [path]


_RUNNERS = {
    "tilde": _run_tilde,
    "bbm": _run_bbm,
    "poincare": _run_poincare,
    "solve": _run_solve,
    "gamma": _run_gamma,
    "check": _run_check,
}


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> List[Path]:
    """Execute a parsed config; returns the list of files written.

    An overflow or an invalid operation on the way warns of nothing: the
    value it leaves is inf or NaN, which `_fmt` reports as a
    NumericOverflowError before it reaches a file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _RUNNERS[cfg.command](cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orliczfrac",
        description="Nonlocal growth-function modulars: experiments and solver")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to a key=value config file")
    parser.add_argument("--out", default=".",
                        help="directory for output artifacts")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text(), args.command)
        files = run(cfg, args.out)
    except (ConfigError, InvalidParameterError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OrliczFracError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    for f in files:
        sys.stdout.write(f"wrote {f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
