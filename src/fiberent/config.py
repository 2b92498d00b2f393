"""Flat key = value experiment configuration with precise error reporting.

Format: one `key = value` per line, `#` starts a comment, lists are
comma-separated.  No nesting, no sections; a config file is fully
described by its (subcommand, key set).  All numbers are parsed exactly:
decimal literals become Fractions, so distributions stated in a config
stay rational all the way into the measures.

Each subcommand's schema gives every key one entry: its value kind, its
default or REQUIRED, and the (selector, choice) that alone reads it, such
as ("model", "markov") for the transition rows.  `parse_config` reads the
file's lines, then the values of any command-line flags, and then runs the
required, default and cross-key rules once, so a flag may supply a key the
file lacks.  Every problem found is reported as (key, line, reason), line 0
for a flag or an absent key; parsing continues past errors so a config is
fixed in one round trip.  A validated config is
turned into the objects a run needs here too: `build_model` gives the
model of smb-run, cond-entropy and cocycle-check, and `build_cover` the
cover instance of cover-demo.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .covering import CoverInstance, RandomCoverInstance
from .groups import HeisenbergGroup, ZdGroup, subset_from_coords
from .rds import BernoulliModel, MarkovModel, RandomAlphabetModel, exact_distribution

SUBCOMMANDS = ("smb-run", "cond-entropy", "folner-check", "cocycle-check", "cover-demo")


@dataclass(frozen=True)
class ConfigIssue:
    key: str
    line: int
    reason: str

    def __str__(self) -> str:
        return f"key '{self.key}' (line {self.line}): {self.reason}"


class ConfigError(ValueError):
    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass
class ExperimentConfig:
    subcommand: str
    values: dict = field(default_factory=dict)

    def get(self, key: str):
        return self.values.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.values


# A key is a name and, for an indexed family, its index: shape_1_2.
_KEY_RE = re.compile(r"([a-z][a-z0-9_]*?)((?:_\d+)*)")

REQUIRED = "required"  # the default of a key the file or a flag must give


class _Key(NamedTuple):
    """A schema entry: the value kind, the default (None, or REQUIRED), and
    the (selector, choice) that alone reads the key, if one does."""

    kind: str
    default: object = None
    read_by: Optional[tuple] = None


# Per-subcommand schema: key, or (name, arity) for the indexed family
# name_i (arity 1) / name_i_j (arity 2), -> its entry.  A key only another
# choice of its selector reads is an issue at its line, and a key read by
# one choice is required only when that choice is made.  Kinds: u64,
# int:<min> or int:<min>:<max> (an integer in that range), number, unit
# (rational in (0, 1)), string, dist, intlist, group, choice:<a|b|...>.
# Each int's minimum is the least value its runner can use.
_COMMON = {
    "seed": _Key("u64", REQUIRED),
    "out": _Key("string"),
    "subcommand": _Key("choice:" + "|".join(SUBCOMMANDS)),
}

_MODEL = {
    "model": _Key("choice:bernoulli|random-alphabet|markov", REQUIRED),
    "group": _Key("group", ZdGroup(1)),
    "p": _Key("dist", REQUIRED, ("model", "bernoulli")),
    "base_p": _Key("dist", REQUIRED, ("model", "random-alphabet")),
    ("fiber_p", 1): _Key("dist", read_by=("model", "random-alphabet")),
    ("transition", 1): _Key("dist", read_by=("model", "markov")),
}

_SCHEDULE = {"n_max": _Key("int:1"), "sides": _Key("intlist"), "tolerance": _Key("number")}

# The most trajectories, cocycle checks or Monte Carlo samples a run may ask
# for.  At the smallest window (2-core x86_64, Python 3.11, numpy 2.4) 10^5
# of each took 4.1-7.2 s and at most 6 MiB, but smb-run peaked at 64 MiB RSS
# with 10^5 trajectories and 319 MiB with 10^6, more than a _WINDOW_CAP run.  Each
# row adds a float64 a trajectory, so trajectories x rows <= 2^22 (16384 x 256: 68 MiB).
_COUNT_CAP = 10 ** 6

# The index arity of each cover kind's shape_ and centers_ keys.
_COVER_ARITY = {"greedy": 1, "random": 2}

_SCHEMAS = {
    "smb-run": {
        **_COMMON, **_MODEL, **_SCHEDULE,
        "workers": _Key("int:1:64", 1), "trajectories": _Key(f"int:1:{_COUNT_CAP}", 100),
    },
    "cond-entropy": {
        **_COMMON, **_MODEL, **_SCHEDULE,
        "method": _Key("choice:exact|monte-carlo", "exact"),
        "samples": _Key(f"int:1:{_COUNT_CAP}", 2000, ("method", "monte-carlo")),
    },
    "folner-check": {
        **_COMMON, "group": _Key("group", REQUIRED), "n_max": _Key("int:1", REQUIRED),
        "tempered_bound": _Key("number"),
    },
    "cocycle-check": {
        **_COMMON, **_MODEL,
        "checks": _Key(f"int:1:{_COUNT_CAP}", 1000), "window_n": _Key("int:1", 4),
        "radius": _Key("int:0", 5),
    },
    "cover-demo": {
        **_COMMON,
        "kind": _Key("choice:greedy|random", REQUIRED),
        "ambient_n": _Key("int:1", REQUIRED),
        "delta": _Key("unit", REQUIRED), "epsilon": _Key("unit", REQUIRED),
        "k_set": _Key("intlist", REQUIRED, ("kind", "random")),
        "c": _Key("number", REQUIRED, ("kind", "random")),
        "alpha": _Key("unit", REQUIRED, ("kind", "random")),
        "samples": _Key(f"int:100:{_COUNT_CAP}", 2000, ("kind", "random")),
        **{(name, arity): _Key(kind, read_by=("kind", cover))
           for cover, arity in _COVER_ARITY.items()
           for name, kind in (("shape", "int:1"), ("centers", "intlist"))},
    },
}


def _parse_scalar(kind: str, raw: str):
    if kind == "string":
        return raw
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split("|")
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw
    if kind == "group":
        if raw == "heisenberg":
            return HeisenbergGroup()
        m = re.fullmatch(r"zd:([1-9])", raw)
        if not m or int(m.group(1)) > 3:
            raise ValueError("expected zd:1, zd:2, zd:3, or heisenberg")
        return ZdGroup(int(m.group(1)))
    if kind == "u64":
        v = int(raw)
        if not 0 <= v < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        return v
    if kind.startswith("int:"):
        v = int(raw)
        least, *most = map(int, kind.split(":")[1:])
        if v < least:
            raise ValueError(f"must be >= {least}")
        if most and v > most[0]:
            raise ValueError(f"must be in {least}..{most[0]}")
        return v
    if kind in ("number", "unit"):
        v = _finite(Fraction(raw))
        if kind == "unit" and not 0 < v < 1:
            raise ValueError("must lie strictly between 0 and 1")
        return v
    if kind == "intlist":
        return tuple(int(part.strip()) for part in raw.split(","))
    if kind == "dist":
        parts = [Fraction(part.strip()) for part in raw.split(",")]
        _finite(sum(map(abs, parts)))  # so each entry and the total are finite
        return exact_distribution(parts)
    raise AssertionError(f"unknown kind {kind}")


def _finite(v: Fraction) -> Fraction:
    """v, if float(v) is finite, as every run reads it: 2^1024 - 2^970,
    halfway past the largest float, is the least |v| that rounds to inf."""
    if abs(v) >= 2 ** 1024 - 2 ** 970:
        raise ValueError("must convert to a finite float")
    return v


def _split_key(key: str) -> tuple:
    """(name, index tuple) of a key: `shape_1_2` is ("shape", (1, 2)),
    `fiber_p_01` is ("fiber_p", (1,)), and a plain key is (key, ())."""
    name, index = _KEY_RE.fullmatch(key).groups()
    return name, tuple(int(i) for i in index.split("_")[1:])


def family(values: dict, prefix: str, arity: int) -> dict:
    """{index tuple: key} of the keys named prefix_i (arity 1) or prefix_i_j
    (arity 2), in index order.  With `_split_key` this is the only reader of
    indexed key names; a parsed config holds one key per index."""
    named = ((_split_key(key), key) for key in values)
    return dict(sorted((index, key) for (name, index), key in named
                       if name == prefix and len(index) == arity))


def _lookup(schema: dict, key: str) -> Optional[_Key]:
    name, index = _split_key(key)
    return schema.get((name, len(index)) if index else key)


def decode_config(raw: bytes) -> str:
    """A config file's bytes as text; a config must be UTF-8, with or without
    a byte-order mark, and the first byte that is not is an issue at its line."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts in exc.object, the bytes after any byte-order
        # mark; the bad byte starts or continues the last line before it.
        line = len((exc.object[:exc.start].decode("utf-8") + "?").splitlines())
        reason = f"not UTF-8 text (byte {exc.object[exc.start]:#04x})"
        raise ConfigError([ConfigIssue("-", line, reason)]) from None


def parse_config(text: str, subcommand: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found.

    `overrides` maps schema keys to raw values, as command-line flags give
    them: each replaces or supplies its key before the required, default
    and cross-key rules run, and its issues cite line 0."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand}")
    schema = _SCHEMAS[subcommand]
    issues = []
    values: dict = {}
    lines_seen: dict = {}
    index_lines: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            issues.append(ConfigIssue("-", lineno, "expected 'key = value'"))
            continue
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if not _KEY_RE.fullmatch(key):
            issues.append(ConfigIssue(key, lineno, "malformed key"))
            continue
        ident = _split_key(key)
        if ident in index_lines:
            issues.append(ConfigIssue(key, lineno, f"duplicate of line {index_lines[ident]}"))
            continue
        index_lines[ident] = lines_seen[key] = lineno
        entry = _lookup(schema, key)
        if entry is None:
            issues.append(ConfigIssue(key, lineno, f"unknown key for {subcommand}"))
            continue
        if not raw:
            issues.append(ConfigIssue(key, lineno, "missing value"))
            continue
        try:
            values[key] = _parse_scalar(entry.kind, raw)
        except (ValueError, ZeroDivisionError) as exc:
            issues.append(ConfigIssue(key, lineno, str(exc)))
    for key, raw in (overrides or {}).items():
        lines_seen[key] = 0
        try:
            values[key] = _parse_scalar(schema[key].kind, raw)
        except (ValueError, ZeroDivisionError) as exc:
            issues.append(ConfigIssue(key, 0, str(exc)))
    if values.get("subcommand", subcommand) != subcommand:
        issues.append(ConfigIssue("subcommand", lines_seen["subcommand"],
                                  f"config says {values['subcommand']}, invoked as {subcommand}"))
    for key, entry in schema.items():
        if key in values or entry.default is None:
            continue
        if entry.default != REQUIRED:
            values[key] = entry.default
        elif entry.read_by is None and not any(i.key == key for i in issues):
            issues.append(ConfigIssue(key, 0, "required key missing"))
    if subcommand in ("smb-run", "cond-entropy") and not {"n_max", "sides"} & lines_seen.keys():
        issues.append(ConfigIssue("n_max", 0, "required key missing (or give sides)"))
    cfg = ExperimentConfig(subcommand, values)
    if not issues:
        issues.extend(_cross_validate(cfg, lines_seen))
    if issues:
        raise ConfigError(issues)
    return cfg


def _cross_validate(cfg: ExperimentConfig, lines: dict) -> list:
    """Issues that involve more than one key; each validator gives (key,
    reason), and the issue cites that key's line: 0 for a flag or no line."""
    v, sub = cfg.values, cfg.subcommand
    issues = _validate_variant(_SCHEMAS[sub], v, lines)
    if sub in ("smb-run", "cond-entropy", "cocycle-check"):
        issues.extend(_validate_model_rows(v))
    if sub in ("smb-run", "cond-entropy"):
        issues.extend(_validate_schedule(v))
    if sub == "smb-run":
        rows = len(v.get("sides") or range(v["n_max"]))
        if v["trajectories"] * rows > 2 ** 22:
            issues.append(("trajectories", f"{rows} rows x trajectories exceeds 2^22"))
    if sub == "cocycle-check" and _window_size(v["group"], v["window_n"]) > _WINDOW_CAP:
        issues.append(("window_n", "window exceeds 2^20 points"))
    if sub == "folner-check":
        group = v["group"]
        cap = 6 if isinstance(group, HeisenbergGroup) else 64
        if v["n_max"] > cap:
            issues.append(("n_max", f"must be in 1..{cap} for {group.tag}"))
    if sub == "cover-demo":
        issues.extend(_validate_cover_keys(v))
    return [ConfigIssue(key, lines.get(key, 0), reason) for key, reason in issues]


def _validate_variant(schema: dict, v: dict, lines: dict) -> list:
    """Keys the file gives that only another model, cover kind or method
    reads, and the required keys the chosen one reads but the config lacks."""
    issues = []
    for selector in dict.fromkeys(e.read_by[0] for e in schema.values() if e.read_by):
        if selector not in v:
            continue
        chosen, label = (selector, v[selector]), f"{selector} = {v[selector]}"
        for key in lines:
            read_by = _lookup(schema, key).read_by
            if read_by and read_by[0] == selector and read_by != chosen:
                issues.append((key, f"not read for {label}"))
        issues.extend((key, f"required for {label}") for key, e in schema.items()
                      if e.read_by == chosen and e.default == REQUIRED and key not in v)
    return issues


def _row_issues(keys: dict, prefix: str, k: int) -> list:
    """Model rows must be prefix_0..prefix_{k-1}: each row outside, or else
    each one missing, is an issue at its own key."""
    return ([(key, f"row {i} outside 0..{k - 1}") for (i,), key in keys.items() if i >= k]
            or [(f"{prefix}_{i}", f"missing row {prefix}_{i} of 0..{k - 1}")
                for i in range(k) if (i,) not in keys])


def _validate_model_rows(v: dict) -> list:
    """One fiber row per base symbol, all of one width; or a square transition
    matrix, a row per index given, with a unique stationary vector, on zd:1."""
    issues = []
    if v["model"] == "random-alphabet" and "base_p" in v:
        keys = family(v, "fiber_p", 1)
        issues = _row_issues(keys, "fiber_p", len(v["base_p"]))
        if not issues:
            width = len(v[keys[(0,)]])
            issues = [(key, f"must have the {width} symbols of fiber_p_0")
                      for key in keys.values() if len(v[key]) != width]
    elif v["model"] == "markov":
        keys = family(v, "transition", 1)
        issues = _row_issues(keys, "transition", max(len(keys), 1))
        if not issues:
            try:
                MarkovModel.create([v[key] for key in keys.values()]).stationary
            except ValueError as exc:
                issues.append(("transition_0", str(exc)))
        if v["group"] != ZdGroup(1):
            issues.append(("group", "markov model requires group = zd:1"))
    return issues


# The most points one window may hold, in SMB schedules, cocycle checks and
# the cover-demo ambient window; the cover's blocks share it in total.  At
# 2^20 sites (site generator 2, one worker, a 2-core x86_64 host, Python 3.11,
# numpy 2.4) a smb-run trajectory peaked at 150 MiB RSS for Bernoulli and 172 MiB
# for the mixed model on zd:2, 211 MiB for Markov on zd:1, and a Heisenberg
# cocycle check at 134 MiB.  The window's coordinate set and the plan's sorted
# coordinates hold most of that; each worker holds one plan, sent once, so memory sets the cap.
_WINDOW_CAP = 2 ** 20


def _window_size(group, n: int) -> int:
    """Points of the group's n-th standard window."""
    return math.prod(group.window_extents(n))


# The most points the windows of one SMB or cond-entropy schedule may hold
# together.  A run builds and holds one window at a time, so this bounds build
# and plan time, not memory: at n_max = 2047 on zd:1 (same host as _WINDOW_CAP)
# smb-run took 0.6-0.75 s CPU and cond-entropy 1.1-1.3 s, each peaking at 37 MiB RSS.
_SCHEDULE_CAP = 2 ** 21


def _schedule_size_issues(key: str, group, sides) -> list:
    """The largest window within _WINDOW_CAP, then all of them within
    _SCHEDULE_CAP; window k holds at least k points, so the sum stops early."""
    if _window_size(group, sides[-1]) > _WINDOW_CAP:
        return [(key, "largest window exceeds 2^20 points")]
    total = 0
    for side in sides:
        total += _window_size(group, side)
        if total > _SCHEDULE_CAP:
            return [(key, "windows exceed 2^21 points in total")]
    return []


def _validate_schedule(v: dict) -> list:
    issues = []
    group, sides, n_max = v["group"], v.get("sides"), v.get("n_max")
    if sides is not None:
        if any(s < 1 for s in sides) or any(a >= b for a, b in zip(sides, sides[1:])):
            issues.append(("sides", "must be positive and strictly increasing"))
        else:
            issues.extend(_schedule_size_issues("sides", group, sides))
    if n_max is not None:
        issues.extend(_schedule_size_issues("n_max", group, range(1, n_max + 1)))
    if sides is not None and n_max is not None:
        issues.append(("sides", "give either n_max or sides, not both"))
    return issues


def _validate_cover_keys(v: dict) -> list:
    """Each shape needs its center list and each center list its shape; the
    ambient window, and the blocks S a of all shapes in total, hold at most
    _WINDOW_CAP points."""
    arity = _COVER_ARITY[v["kind"]]
    shapes, centers = family(v, "shape", arity), family(v, "centers", arity)
    issues = [(key.replace("shape", "centers"), f"missing centers for {key}")
              for index, key in shapes.items() if index not in centers]
    issues += [(key, f"no {key.replace('centers', 'shape')} for these centers")
               for index, key in centers.items() if index not in shapes]
    if not shapes:
        issues.append(("shape_1" if arity == 1 else "shape_1_1", f"{v['kind']} form needs a shape"))
    if v["ambient_n"] > _WINDOW_CAP:
        issues.append(("ambient_n", "ambient window exceeds 2^20 points"))
    points = 0
    for index, key in shapes.items():
        points += v[key] * len(set(v[centers[index]])) if index in centers else 0
        if points > _WINDOW_CAP:
            issues.append((key, "cover blocks exceed 2^20 points"))
            break
    return issues


def build_model(cfg: ExperimentConfig):
    """Instantiate the model a validated config describes."""
    v = cfg.values
    model = v["model"]
    if model == "bernoulli":
        return BernoulliModel.create(v["group"], v["p"])
    if model == "random-alphabet":
        rows = [v[key] for key in family(v, "fiber_p", 1).values()]
        return RandomAlphabetModel.create(v["group"], v["base_p"], rows)
    if model == "markov":
        return MarkovModel.create([v[key] for key in family(v, "transition", 1).values()])
    raise AssertionError(model)


def build_cover(cfg: ExperimentConfig):
    """Instantiate the cover instance a validated cover-demo config describes
    on Z: shape_i / centers_i are the one row of kind = greedy, and
    shape_i_j / centers_i_j are row i of kind = random."""
    v = cfg.values
    group = ZdGroup(1)
    arity = _COVER_ARITY[v["kind"]]
    center_keys = family(v, "centers", arity)
    rows: dict = {}
    for index, key in family(v, "shape", arity).items():
        block = group.box(v[key]), subset_from_coords(group, [(c,) for c in v[center_keys[index]]])
        rows.setdefault(index[:-1], []).append(block)
    shapes, centers = zip(*(zip(*row) for row in rows.values()))
    ambient = group.box(v["ambient_n"])
    if v["kind"] == "greedy":
        return CoverInstance.create(ambient, shapes[0], centers[0], v["delta"], v["epsilon"])
    K = subset_from_coords(group, [(c,) for c in v["k_set"]])
    return RandomCoverInstance.create(ambient, shapes, centers, K,
                                      v["c"], v["alpha"], v["delta"], v["epsilon"])
