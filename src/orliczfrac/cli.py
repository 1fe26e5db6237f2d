"""Command-line front end: flat key=value configs, CSV/summary artifacts.

Config format: one `key = value` per line, `#` starts a comment. The growth
function grammar is

    expr := power(P) | power_log(P) | power_abslog(P)
          | max(expr, expr, ...) | sum(W*expr, W*expr, ...)
          | compose(expr, expr)

Invocation: `orliczfrac <command> --config <path> [--out <dir>]`. The
command must match the config's `command` key. Exit status: 0 success,
1 validation failure, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ConfigError,
    InvalidParameterError,
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

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[0-9.eE+-]+|[(),*])")


def _fmt(x):
    return f"{x:.17g}"


class _GParser:
    """Recursive-descent parser for the growth-function grammar."""

    def __init__(self, text):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise InvalidParameterError(
                        f"cannot tokenize {text[pos:].strip()!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise InvalidParameterError(
                f"expected {expected or 'token'}, got {tok!r}")
        self.pos += 1
        return tok

    def number(self):
        tok = self.take()
        try:
            return float(tok)
        except ValueError:
            raise InvalidParameterError(f"expected a number, got {tok!r}")

    def expr(self) -> OrliczFunction:
        head = self.take()
        if head in ("power", "power_log", "power_abslog"):
            self.take("(")
            p = self.number()
            self.take(")")
            maker = {"power": make_power, "power_log": make_power_log,
                     "power_abslog": make_power_abslog}[head]
            return maker(p)
        if head == "max":
            self.take("(")
            parts = [self.expr()]
            while self.peek() == ",":
                self.take(",")
                parts.append(self.expr())
            self.take(")")
            return make_combination("max", parts)
        if head == "sum":
            self.take("(")
            weights, parts = [], []
            while True:
                weights.append(self.number())
                self.take("*")
                parts.append(self.expr())
                if self.peek() != ",":
                    break
                self.take(",")
            self.take(")")
            return make_combination("sum", parts, weights)
        if head == "compose":
            self.take("(")
            outer = self.expr()
            self.take(",")
            inner = self.expr()
            self.take(")")
            return compose(outer, inner)
        raise InvalidParameterError(f"unknown growth function {head!r}")


def parse_growth(text: str) -> OrliczFunction:
    parser = _GParser(text)
    G = parser.expr()
    if parser.peek() is not None:
        raise InvalidParameterError(
            f"trailing input after growth spec: {parser.peek()!r}")
    return G


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
        spec = self.rhs_spec.strip()
        if spec == "zero":
            return 0.0
        m = re.fullmatch(r"constant\(([^)]+)\)", spec)
        if m:
            return float(m.group(1))
        if spec == "sin":
            return lambda x: np.sin(np.pi * x)
        raise InvalidParameterError(f"unknown rhs spec {spec!r}")


def _parse_floats(value, count=None):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    vals = tuple(float(p) for p in parts)
    if count is not None and len(vals) != count:
        raise ValueError(f"need exactly {count} comma-separated values")
    return vals


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config; errors carry line numbers."""
    errors = []
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, f"expected key = value, got {raw.strip()!r}"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        try:
            if key == "command":
                if value not in _COMMANDS:
                    raise ValueError(f"unknown command {value!r}")
                fields["command"] = value
            elif key == "g":
                parse_growth(value)  # surface construction errors here
                fields["g_spec"] = value
            elif key == "n":
                n = int(value)
                if n not in (1, 2, 3):
                    raise ValueError("n must be 1, 2 or 3")
                fields["n"] = n
            elif key == "s":
                fields["s"] = float(value)
            elif key == "s_list":
                fields["s_list"] = _parse_floats(value)
            elif key == "domain":
                a, b = _parse_floats(value, 2)
                if not a < b:
                    raise ValueError("domain must satisfy left < right")
                fields["domain"] = (a, b)
            elif key == "nodes":
                fields["nodes"] = int(value)
            elif key == "rhs":
                fields["rhs_spec"] = value
            elif key == "a_list":
                fields["a_list"] = _parse_floats(value)
            elif key == "scaling":
                if value not in ("bbm_scaled", "unscaled"):
                    raise ValueError("scaling must be bbm_scaled|unscaled")
                fields["scaling"] = value
            elif key == "seed":
                fields["seed"] = int(value)
            elif key == "count":
                fields["count"] = int(value)
            elif key == "out":
                fields["out"] = value
            else:
                raise ValueError(f"unknown key {key!r}")
        except (ValueError, OrliczFracError) as exc:
            errors.append((lineno, str(exc)))
    if "command" not in fields and not any("command" in m for _, m in errors):
        errors.append((0, "missing required key 'command'"))
    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(**fields)
    if not cfg.out:
        cfg.out = cfg.command
    return cfg


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
    path = out_dir / f"{cfg.out}.csv"
    path.write_text("\n".join(lines) + "\n")
    return [path]


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
    path = out_dir / f"{cfg.out}.csv"
    path.write_text("\n".join(lines) + "\n")
    return [path]


def _run_poincare(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    G = cfg.growth()
    s_list = cfg.s_list or ((cfg.s,) if cfg.s is not None else (0.3, 0.6, 0.9))
    rng = np.random.default_rng(cfg.seed)
    funcs = [random_zero_trace(rng, cfg.domain[0], cfg.domain[1], cfg.nodes,
                               amplitude=rng.uniform(0.2, 2.0))
             for _ in range(cfg.count)]
    lines = ["s,max_ratio,budget,ok"]
    all_ok = True
    for s in s_list:
        reports = [poincare_check(G, s, u) for u in funcs]
        worst = max(reports, key=lambda r: r.ratio)
        ok = all(r.within_budget for r in reports)
        all_ok &= ok
        lines.append(f"{_fmt(s)},{_fmt(worst.ratio)},{_fmt(worst.budget)},"
                     f"{int(ok)}")
    path = out_dir / f"{cfg.out}.csv"
    path.write_text("\n".join(lines) + "\n")
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
    u_path = out_dir / f"{cfg.out}_u.csv"
    u_path.write_text(result.u.to_csv())
    summary = out_dir / f"{cfg.out}_summary.txt"
    summary.write_text(
        f"energy={_fmt(result.energy)}\n"
        f"iterations={result.iterations}\n"
        f"grad_norm={_fmt(result.grad_norm)}\n"
        f"weak_residual={_fmt(result.weak_residual)}\n"
        f"converged={int(result.converged)}\n")
    # A roundoff-floor stall still counts as solved when the minimizer
    # satisfies the discrete weak form within the documented 10x budget.
    tol = 1e-8 * max(1.0, abs(result.energy))
    if not result.converged and result.weak_residual > 10.0 * tol:
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
    path = out_dir / f"{cfg.out}.csv"
    path.write_text("\n".join(lines) + "\n")
    return [path]


def _run_check(cfg: ExperimentConfig, out_dir: Path) -> List[Path]:
    G = cfg.growth()
    lines = []
    failures = 0

    report = verify_orlicz(G)
    for name, check in (("H1", report.h1), ("H2", report.h2),
                        ("H3", report.h3)):
        status = "PASS" if check.passed else "FAIL"
        detail = f" ({check.detail} at x={check.worst_x:.6g})" \
            if not check.passed else ""
        lines.append(f"{status} screening {name}{detail}")
        failures += 0 if check.passed else 1

    for res in inequality_suite(G, n_samples=cfg.count * 10, seed=cfg.seed):
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name} "
                     f"({res.violations}/{res.samples} violations)")
        failures += 0 if res.passed else 1

    for res in transform_suite(G, n_functions=max(2, cfg.count // 4),
                               node_count=min(cfg.nodes, 129), seed=cfg.seed):
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name} "
                     f"({res.violations}/{res.samples} violations)")
        failures += 0 if res.passed else 1

    for res in luxemburg_consistency(G, seed=cfg.seed):
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.name}")
        failures += 0 if res.passed else 1

    path = out_dir / f"{cfg.out}.txt"
    path.write_text("\n".join(lines) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
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
    """Execute a parsed config; returns the list of files written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        cfg = parse_config(Path(args.config).read_text())
        if cfg.command != args.command:
            raise ConfigError(
                [(0, f"config command {cfg.command!r} does not match "
                     f"CLI command {args.command!r}")])
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
