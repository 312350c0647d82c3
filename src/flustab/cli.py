"""Command line front end: one binary, one JSON config, CSV/JSON out.

Subcommands map onto the library one-to-one: `analyze` prints a spectrum
report, `sweep` scans T, `simulate`/`surface` integrate and export, `field`
samples the two vector fields on eigen-direction lattices, and `validate`
runs the randomized oracle suites.

Exit codes are a stable contract: 0 success, 1 validation-suite failure,
2 invalid config or unwritable output, 3 numeric failure (a grid too
large to allocate included), 4 trajectory blow-up, 141 output pipe closed
by the reader (as in `flustab simulate ... | head -1`; 128 + SIGPIPE, the
shell's code for a writer the pipe killed). Machine-readable errors go to
standard error as a single JSON object; a closed pipe ends the run quietly.
The indented JSON documents (`analyze`, `validate --json`) are written by
_json_text, faster than json's indented encoder and with the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii

import numpy as np

from .charpoly import coefficient_matrix
from .dynamics import time_rhs, x_rhs
from .model import (
    FieldCoefficients,
    InvalidParamsError,
    ModelParams,
    StateVector,
    _threshold,
    validate as validate_params,
)
from .spectrum import _KIND_BY_ROW, _regime_rows, _viral_pressure
from .spectrum import analyze, eigenvector, perron_root, real_roots
from .surface import (
    BlowUpError,
    Trajectory,
    asymptotics,
    integrate_linearized,
    integrate_time,
    trace_surface,
)
from .validation import run_all

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BLOW_UP = 4
EXIT_BROKEN_PIPE = 141

_TOP_KEYS = {"params", "coeffs", "T", "initial_state", "grid", "linearized"}
_GRID_KEYS = {"x_span", "t_span", "h_x", "h_t", "asymptotics_window"}
_SWEEP_KEYS = {"from", "to", "steps"}


class ConfigError(Exception):
    """Configuration rejected before any computation ran."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


def _silence_stdout() -> None:
    """Point the standard output descriptor at the null device, so the
    interpreter's flush at exit meets no closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor; nothing is flushed to a pipe
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _emit_error(code: int, message: str, details: dict | None = None) -> None:
    doc = {"error": {"code": code, "message": message, "details": details or {}}}
    print(json.dumps(doc), file=sys.stderr)


class _OutFile:
    """The --out file, opened (and truncated) on the first write, so a run
    that fails before it writes leaves the path as it was. A write takes
    text, written as UTF-8, or bytes."""

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def write(self, data) -> None:
        if self.fh is None:
            try:
                self.fh = open(self.path, "wb")
            except OSError as exc:
                raise ConfigError(f"cannot open --out path: {exc}") from exc
        self.fh.write(data.encode("utf-8") if isinstance(data, str) else data)

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
                 bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json_text(doc, pad: str = "\n") -> str:
    """json.dumps(doc, indent=2, allow_nan=False) byte for byte, its
    ValueError included, for str-keyed dicts, lists, tuples and the exact
    types of _JSON_SCALARS; pad is the newline and indent that close doc."""
    scalar = _JSON_SCALARS.get(type(doc))
    if scalar is not None:
        if type(doc) is float and not math.isfinite(doc):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(doc))
        return scalar(doc)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(doc, dict):
        text = sep.join([encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in doc.items()])
        return "{" + inner + text + pad + "}" if text else "{}"
    # a list or tuple: a run of floats in one join; an "n" in it is an inf or a nan
    text = sep.join(map(float.__repr__, doc)) if all(type(x) is float for x in doc) else "n"
    if "n" in text:  # not a run of finite floats: one item at a time
        text = sep.join([_json_text(v, inner) for v in doc])
    return "[" + inner + text + pad + "]" if text else "[]"


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class RunConfig:
    params: ModelParams | None = None
    coeffs: FieldCoefficients | None = None  # parse_config's default whenever params are given
    T_value: float | None = None
    T_sweep: tuple[float, float, int] | None = None
    initial_state: list[float] | None = None
    grid: dict = dc_field(default_factory=dict)
    linearized: bool = False


def _as_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number")
    try:
        out = float(value)
    except OverflowError as exc:  # an int past the float range, as 1e400 is inf
        raise ConfigError(f"{what} must be finite") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite")
    return out


def _parse_span(value, what: str) -> tuple[float, float]:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{what} must be a number or a [start, end] pair")
        return (_as_float(value[0], what), _as_float(value[1], what))
    return (0.0, _as_float(value, what))


def _parse_grid(node) -> dict:
    if not isinstance(node, dict):
        raise ConfigError("grid must be an object")
    unknown = set(node) - _GRID_KEYS
    if unknown:
        raise ConfigError("unknown grid keys", {"keys": sorted(unknown)})
    grid: dict = {}
    for key in ("x_span", "t_span"):
        if key in node:
            grid[key] = _parse_span(node[key], f"grid.{key}")
    for key in ("h_x", "h_t", "asymptotics_window"):
        if key in node:
            value = _as_float(node[key], f"grid.{key}")
            if value <= 0:
                raise ConfigError(f"grid.{key} must be > 0")
            grid[key] = value
    return grid


def _check_pressure(params: ModelParams | None, T: float, key: str) -> None:
    """Reject a T whose viral pressure beta*T*p*tau_I overflows: no regime
    or root at it would mean anything. A sweep checks its largest T."""
    if params is not None and not math.isfinite(_viral_pressure(params, T)):
        raise ConfigError(f"{key} is too large: beta*T*p*tau_I overflows", {"key": key})


def parse_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError("unknown config keys", {"keys": sorted(unknown)})
    cfg = RunConfig()

    if "params" in doc:
        try:
            cfg.params = ModelParams.from_json_dict(doc["params"])
        except InvalidParamsError as exc:
            raise ConfigError("invalid params", {"problems": exc.problems}) from exc
        problems = validate_params(cfg.params)
        if problems:
            raise ConfigError("invalid params", {"problems": problems})

    if "coeffs" in doc:
        if cfg.params is None:
            raise ConfigError("coeffs given without params")
        node = doc["coeffs"]
        if not isinstance(node, dict) or set(node) - {"r", "psi"}:
            raise ConfigError("coeffs must be an object with keys r and psi")
        r = node.get("r")
        if r is None:
            r = FieldCoefficients.default_for(cfg.params).r
        if not isinstance(r, (list, tuple)):
            raise ConfigError("coeffs.r must be a list")
        coeffs = FieldCoefficients(
            r=tuple(_as_float(v, "coeffs.r entry") for v in r),
            psi=_as_float(node.get("psi", 0.0), "coeffs.psi"),
        )
        problems = coeffs.problems_for(cfg.params)
        if problems:
            raise ConfigError("invalid coeffs", {"problems": problems})
        cfg.coeffs = coeffs
    elif cfg.params is not None:
        cfg.coeffs = FieldCoefficients.default_for(cfg.params)

    if "T" in doc:
        node = doc["T"]
        if isinstance(node, dict):
            if set(node) != _SWEEP_KEYS:
                raise ConfigError('T sweep needs exactly the keys "from", "to", "steps"')
            lo = _as_float(node["from"], "T.from")
            hi = _as_float(node["to"], "T.to")
            steps = node["steps"]
            if isinstance(steps, bool) or not isinstance(steps, int) or steps < 2:
                raise ConfigError("T.steps must be an integer >= 2")
            if not lo < hi:
                raise ConfigError("T sweep needs from < to")
            if lo < 0:
                raise ConfigError("T sweep must stay >= 0")
            _check_pressure(cfg.params, hi, "T.to")
            cfg.T_sweep = (lo, hi, steps)
        else:
            value = _as_float(node, "T")
            if value < 0:
                raise ConfigError("T must be >= 0")
            _check_pressure(cfg.params, value, "T")
            cfg.T_value = value

    if "initial_state" in doc:
        node = doc["initial_state"]
        if not isinstance(node, (list, tuple)) or not node:
            raise ConfigError("initial_state must be a non-empty list of numbers")
        cfg.initial_state = [_as_float(v, "initial_state entry") for v in node]

    if "grid" in doc:
        cfg.grid = _parse_grid(doc["grid"])

    if "linearized" in doc:
        if not isinstance(doc["linearized"], bool):
            raise ConfigError("linearized must be true or false")
        cfg.linearized = doc["linearized"]

    return cfg


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:  # strict UTF-8, so a BOM is left for json to reject
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an int, too deep a nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _need_params(cfg: RunConfig) -> ModelParams:
    if cfg.params is None:
        raise ConfigError("this subcommand needs a config with params")
    return cfg.params


def _state_names(params: ModelParams) -> list[str]:
    names = ["T"]
    names += [f"E{i}" for i in range(1, params.n_E + 1)]
    names += [f"I{i}" for i in range(1, params.n_I + 1)]
    names += ["V", "W"]
    return names


def _state_header(params: ModelParams) -> str:
    return "x,t," + ",".join(_state_names(params)) + ",mismatch\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(cfg: RunConfig, args, out) -> int:
    params = _need_params(cfg)
    if cfg.T_value is None:
        raise ConfigError("analyze needs a scalar T in the config")
    if not math.isfinite(T_star := _threshold(params)):  # tau_I*p*beta underflowed to 0
        raise ArithmeticError(f"T_star = {T_star:g} cannot be written as JSON")
    out.write(_json_text(analyze(params, cfg.T_value).to_json_dict()) + "\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args, out) -> int:
    params = _need_params(cfg)
    if cfg.T_sweep is None:
        raise ConfigError('sweep needs T as {"from": ..., "to": ..., "steps": ...}')
    lo, hi, steps = cfg.T_sweep
    Ts = np.linspace(lo, hi, steps)
    # the structural zero is set aside: the Perron root of the (E, I, V)
    # block is the largest real eigenvalue, and the only one that can be > 0
    roots = perron_root(params, Ts)
    # classify's regime row decides both columns: by the next-generation
    # theorem the root is > 0, the one positive eigenvalue, exactly on "<"
    row = _regime_rows(params, Ts)[0]
    out.write("T,classification,max_real_eig,n_positive\n")
    # one call per run of equal rows, whose kind and count every row holds
    cuts = np.flatnonzero(np.diff(row)) + 1
    for k, T_run, root_run in zip(row[np.r_[0, cuts]].tolist(), np.split(Ts, cuts), np.split(roots, cuts)):
        _write_csv(out, [T_run, _KIND_BY_ROW["<=>"[k]], root_run, "1" if k == 0 else "0"])
    return EXIT_OK


_CSV_BLOCK_VALUES = 4096  # CSV array values per g17_bytes call


def _bytes_writer(out):
    """out's write of bytes: the --out file's, or stdout's buffer's after the
    text before is flushed. A caller in the same process may swap stdout for
    a text stream with no buffer (io.StringIO under redirect_stdout, a
    stand-in writer), which takes the decoded text."""
    if isinstance(out, _OutFile):
        return out.write
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        return lambda data: out.write(data.decode("ascii"))
    out.flush()
    return buffer.write


def _write_csv(out, columns: list) -> None:
    """One CSV line per row, each float the text of "%.17g". columns are
    the CSV's columns, each an array with one value per row, or a float or
    str every row holds; one at least is an array. A constant's text is
    made once and spliced into each row: a run of constants between two
    arrays replaces a separator byte from 128 up (never in g17_bytes'
    text; 128 distinct runs at most). The array columns are stacked and go
    through g17_bytes about _CSV_BLOCK_VALUES values at a time, which
    bounds the memory that takes. A row's newline carries the next row's
    leading constants: the first row's are written once, and the last
    block drops the copy after the last row. The caller writes the header."""
    from ._g17 import g17_bytes

    arrays, runs = [], [[]]  # runs[k]: the texts of the constants after k arrays
    for column in columns:
        if isinstance(column, str):
            runs[-1].append(column.encode("ascii"))
        elif isinstance(column, float):
            runs[-1].append(b"%.17g" % column)
        else:
            arrays.append(column)
            runs.append([])
    head = b"".join(text + b"," for text in runs[0])
    end = b"".join(b"," + text for text in runs[-1]) + b"\n" + head
    marks: dict = {}  # a run's text between two arrays -> its separator byte
    gaps = (marks.setdefault(b"," + b",".join(run) + b",", 128 + len(marks)) if run else 44 for run in runs[1:-1])
    seps = np.frombuffer(bytes(gaps) + b"\n", np.uint8)
    rows, total = max(1, _CSV_BLOCK_VALUES // len(arrays)), len(arrays[0])
    write = _bytes_writer(out)
    if head and total:
        write(head)
    for start in range(0, total, rows):
        text = g17_bytes(np.array([a[start : start + rows] for a in arrays]).T, seps)
        for run, mark in marks.items():
            text = text.replace(bytes([mark]), run)
        if end != b"\n":
            text = text.replace(b"\n", end)
            if start + rows >= total:
                text = text[: len(text) - len(head)]
        write(text)


def _emit_asymptotics_footer(traj: Trajectory, grid: dict) -> None:
    span = abs(float(traj.times[-1]) - float(traj.times[0]))
    window = grid.get("asymptotics_window", 0.5 * span)
    doc: dict = {"asymptotics": None}
    try:
        verdict = asymptotics(traj, window)
    except ValueError as exc:
        doc["note"] = str(exc)
    else:
        doc["asymptotics"] = vars(verdict)
    print(json.dumps(doc), file=sys.stderr)


def cmd_simulate(cfg: RunConfig, args, out) -> int:
    params = _need_params(cfg)
    if "t_span" not in cfg.grid or "h_t" not in cfg.grid:
        raise ConfigError("simulate needs grid.t_span and grid.h_t")
    if cfg.initial_state is None:
        raise ConfigError("simulate needs initial_state")
    t_span, h_t = cfg.grid["t_span"], cfg.grid["h_t"]

    if cfg.linearized:
        if cfg.T_value is None:
            raise ConfigError("a linearized run needs a scalar T to freeze")
        block_dim = params.state_dim - 1
        if len(cfg.initial_state) != block_dim:
            raise ConfigError(
                f"linearized initial_state needs {block_dim} entries (E.., I.., V, W)"
            )
        traj = integrate_linearized(params, cfg.T_value, cfg.initial_state, t_span, h_t, psi=cfg.coeffs.psi)
        state = [cfg.T_value, *traj.states.T]  # T stays frozen
    else:
        if len(cfg.initial_state) != params.state_dim:
            raise ConfigError(f"initial_state needs {params.state_dim} entries (T, E.., I.., V, W)")
        s0 = StateVector.for_params(params, cfg.initial_state)
        traj = integrate_time(params, cfg.coeffs, s0, t_span, h_t)
        state = list(traj.states.T)

    # a single trajectory sits at x = 0 with no mismatch
    out.write(_state_header(params))
    _write_csv(out, [0.0, traj.times, *state, 0.0])
    _emit_asymptotics_footer(traj, cfg.grid)
    return EXIT_OK


def cmd_surface(cfg: RunConfig, args, out) -> int:
    params = _need_params(cfg)
    if cfg.linearized:
        raise ConfigError("surface runs use the full nonlinear fields; drop linearized")
    missing = [k for k in ("x_span", "t_span", "h_x", "h_t") if k not in cfg.grid]
    if missing:
        raise ConfigError("surface needs grid keys", {"missing": missing})
    if cfg.initial_state is None:
        raise ConfigError("surface needs initial_state")
    if len(cfg.initial_state) != params.state_dim:
        raise ConfigError(f"initial_state needs {params.state_dim} entries (T, E.., I.., V, W)")
    s0 = StateVector.for_params(params, cfg.initial_state)
    grid = trace_surface(
        params, cfg.coeffs, s0, cfg.grid["x_span"], cfg.grid["t_span"], cfg.grid["h_x"], cfg.grid["h_t"]
    )
    nx, nt = grid.x_nodes.size, grid.t_nodes.size
    states = grid.states.reshape(nx * nt, -1).T
    columns = [np.repeat(grid.x_nodes, nt), np.tile(grid.t_nodes, nx), *states, grid.mismatch.ravel()]
    out.write(_state_header(params))
    _write_csv(out, columns)
    base_fiber = Trajectory(times=grid.t_nodes, states=grid.states[0], h=grid.h_t)
    _emit_asymptotics_footer(base_fiber, cfg.grid)
    return EXIT_OK


def _unit(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0 or not math.isfinite(norm):
        # squares past the float range: the norm of v over its largest entry
        scale = float(np.max(np.abs(v)))
        if not 0.0 < scale < math.inf:
            raise ArithmeticError("eigen-direction collapsed to zero" if scale == 0.0 else "eigen-direction is not finite")
        v = v / scale
        norm = float(np.linalg.norm(v))
    return v / norm


def _shared_negative_axis(params: ModelParams, T_below: float) -> np.ndarray:
    """Most negative real eigen-direction below the threshold.

    Below T* a negative real root always exists; at T* it can be absorbed
    into a complex pair, so the shared axis is anchored here and reused by
    every panel.
    """
    negatives = [r for r in real_roots(params, T_below) if r < 0.0]
    if not negatives:
        raise ArithmeticError(f"no negative real eigen-direction at T = {T_below:g}")
    return _unit(eigenvector(params, T_below, min(negatives)))


def _panel_axis(params: ModelParams, label: str, T: float) -> tuple[np.ndarray, str]:
    if label == "below":
        return _unit(eigenvector(params, T, 0.0)), "zero"
    if label == "above":
        positives = [r for r in real_roots(params, T) if r > 0.0]
        if not positives:
            raise ArithmeticError(f"no positive eigen-direction at T = {T:g}")
        return _unit(eigenvector(params, T, max(positives))), "positive"
    # at the threshold the zero direction is taken from the numeric
    # eigensolver; the double zero has a single eigen-direction
    w, vecs = np.linalg.eig(coefficient_matrix(params, T))
    idx = int(np.argmin(np.abs(w)))
    return _unit(vecs[:, idx].real), "zero_numeric"


def cmd_field(cfg: RunConfig, args, out) -> int:
    params = _need_params(cfg)
    T_star = params.T_star
    if not math.isfinite(T_star) or T_star <= 0:
        raise ConfigError(f"field sketches need a finite threshold c/(tau_I*p*beta) > 0, not {T_star:g}")
    names = _state_names(params)
    lattice = np.linspace(-1.0, 1.0, 9)
    # the panel's lattice points, u the outer and w the inner loop
    u, w = np.repeat(lattice, lattice.size), np.tile(lattice, lattice.size)

    # every axis and field value comes before the first write: an exit 3 writes nothing
    v_neg = _shared_negative_axis(params, 0.5 * T_star)
    panels = []
    for label, T in (("below", 0.5 * T_star), ("at", T_star), ("above", 1.5 * T_star)):
        v_panel, axis_name = _panel_axis(params, label, T)
        # one state per column; each field component is one CSV column
        states = np.vstack([np.full(u.size, T), u * v_neg[:, None] + w * v_panel[:, None]])
        fields = (*time_rhs(params, cfg.coeffs, states), *x_rhs(params, cfg.coeffs, states))
        panels.append([label, axis_name, T, u, w, *fields])
    header = ["panel", "panel_axis", "T", "u_neg", "u_panel"] + [f"d{d}_{n}" for d in "tx" for n in names]
    out.write(",".join(header) + "\n")
    for columns in panels:
        _write_csv(out, columns)
    return EXIT_OK


def cmd_validate(cfg: None, args, out) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    results = run_all(seed=args.seed)
    ok = all(r.ok for r in results)
    if args.json:
        doc = {"seed": args.seed, "ok": ok, "suites": [vars(r) for r in results]}
        out.write(_json_text(doc) + "\n")
    else:
        for r in results:
            status = "pass" if r.ok else "FAIL"
            out.write(f"{r.name}: {status} ({r.checks - r.failures}/{r.checks} checks)\n")
            for example in r.failure_examples:
                out.write(f"  failing case: {example}\n")
        out.write(f"{'all suites passed' if ok else 'suite failures'} [seed {args.seed}]\n")
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "surface": cmd_surface,
    "field": cmd_field,
    "validate": cmd_validate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: nothing changes it
    after this, and parse_args gives a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="flustab",
        description="Stability analysis and integration for the within-host infection model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "analyze": "spectrum report at one T value (JSON)",
        "sweep": "classification and extreme eigenvalue across a T range (CSV)",
        "simulate": "time integration of one trajectory (CSV)",
        "surface": "two-parameter integral surface trace (CSV)",
        "field": "field samples on eigen-direction lattices (CSV)",
        "validate": "randomized oracle suites; nonzero exit on failure",
    }
    for name, help_text in help_lines.items():
        p = sub.add_parser(name, help=help_text)
        if name != "validate":
            p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="PATH", help="write output here instead of standard output")
        if name == "validate":
            p.add_argument("--json", action="store_true", help="print the suite results as JSON")
            p.add_argument("--seed", type=int, default=0, help="seed of the suites' random draws (default 0)")
    parser.subcommands = sub.choices  # each subcommand's parser by name, for main
    return parser


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:  # no argv, -h or an unknown command: the top-level usage and errors
        args = parser.parse_args(argv)
    else:  # what parse_args does past a command name, without the top-level parse
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    out = sys.stdout if args.out is None else _OutFile(args.out)
    try:
        try:
            cfg = None if args.command == "validate" else _load_config(args.config)
            return _COMMANDS[args.command](cfg, args, out)
        finally:  # a full disk shows at the last flush as often as at a write
            out.flush() if args.out is None else out.close()
    except ConfigError as exc:
        _emit_error(EXIT_BAD_CONFIG, str(exc), exc.details)
        return EXIT_BAD_CONFIG
    except InvalidParamsError as exc:
        _emit_error(EXIT_BAD_CONFIG, "invalid parameters", {"problems": exc.problems})
        return EXIT_BAD_CONFIG
    except BlowUpError as exc:
        details = {"rows": int(exc.times.size), "t_last": exc.t_last, "where": exc.where}
        _emit_error(EXIT_BLOW_UP, str(exc), details)
        return EXIT_BLOW_UP
    except (np.linalg.LinAlgError, ArithmeticError, ValueError, MemoryError) as exc:
        _emit_error(EXIT_NUMERIC, f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except BrokenPipeError:
        # the reader has all it wants; no traceback, no error object
        _silence_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # a full disk: one error object, nothing left to flush at exit
        _silence_stdout()
        _emit_error(EXIT_BAD_CONFIG, f"cannot write output: {exc}")
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
