"""Flat key = value experiment configuration with precise error reporting.

Format: one `key = value` per line, `#` starts a comment, lists are
comma-separated.  No nesting, no sections; a config file is fully
described by its (subcommand, key set).  All numbers are parsed exactly:
decimal literals become Fractions, so distributions stated in a config
stay rational all the way into the measures.

Every problem found is reported as (key, line, reason); parsing continues
past errors so a config is fixed in one round trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .groups import HeisenbergGroup, ZdGroup
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

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self.values


# A key is a name and, for an indexed family, its index: shape_1_2.
_KEY_RE = re.compile(r"([a-z][a-z0-9_]*?)((?:_\d+)*)")

# Per-subcommand schema: key, or (name, arity) for the indexed family
# name_i (arity 1) / name_i_j (arity 2), -> value kind.
# Kinds: u64, int:<min> (integer >= min), number, unit (rational in (0,1]),
# string, dist, intlist, choice:<a|b|...>.  Each int's minimum is the least
# value its runner can use.
_COMMON = {
    "seed": "u64",
    "out": "string",
    "subcommand": "choice:" + "|".join(SUBCOMMANDS),
}

_MODEL_KEYS = {
    "model": "choice:bernoulli|random-alphabet|markov",
    "group": "group",
    "p": "dist",
    "base_p": "dist",
    ("fiber_p", 1): "dist",
    ("transition", 1): "dist",
}

_SCHEMAS = {
    "smb-run": {
        **_COMMON, **_MODEL_KEYS, "workers": "int:1",
        "n_max": "int:1", "sides": "intlist", "trajectories": "int:1", "tolerance": "number",
    },
    "cond-entropy": {
        **_COMMON, **_MODEL_KEYS,
        "n_max": "int:1", "sides": "intlist", "tolerance": "number",
        "method": "choice:exact|monte-carlo", "samples": "int:1",
    },
    "folner-check": {
        **_COMMON, "group": "group", "n_max": "int:1", "tempered_bound": "number",
    },
    "cocycle-check": {
        **_COMMON, **_MODEL_KEYS,
        "checks": "int:1", "window_n": "int:1", "radius": "int:0",
    },
    "cover-demo": {
        **_COMMON,
        "kind": "choice:greedy|random",
        "ambient_n": "int:1", "delta": "unit", "epsilon": "unit",
        "alpha": "unit", "c": "number", "samples": "int:100",
        "k_set": "intlist",
        ("shape", 1): "int:1", ("shape", 2): "int:1",
        ("centers", 1): "intlist", ("centers", 2): "intlist",
    },
}

# What each model, cover kind and method reads beyond the keys all share: plain
# keys (arity 0) and indexed families.  A key the file gives that only another
# choice reads is an issue; a plain key here without a default is required.
_VARIANTS = {
    "model": {"bernoulli": {"p": 0}, "random-alphabet": {"base_p": 0, "fiber_p": 1},
              "markov": {"transition": 1}},
    "kind": {"greedy": {"shape": 1, "centers": 1},
             "random": {"shape": 2, "centers": 2, "k_set": 0, "c": 0, "alpha": 0, "samples": 0}},
    "method": {"exact": {}, "monte-carlo": {"samples": 0}},
}

_REQUIRED = {
    "smb-run": ("seed", "model"),
    "cond-entropy": ("seed", "model"),
    "folner-check": ("seed", "group", "n_max"),
    "cocycle-check": ("seed", "model"),
    "cover-demo": ("seed", "kind", "ambient_n", "delta", "epsilon"),
}

_DEFAULTS = {
    "trajectories": 100,
    "samples": 2000,
    "workers": 1,
    "method": "exact",
    "checks": 1000,
    "window_n": 4,
    "radius": 5,
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
        least = int(kind.split(":", 1)[1])
        if v < least:
            raise ValueError(f"must be >= {least}")
        return v
    if kind in ("number", "unit"):
        v = Fraction(raw)
        if kind == "unit" and not 0 < v < 1:
            raise ValueError("must lie strictly between 0 and 1")
        return v
    if kind == "intlist":
        return tuple(int(part.strip()) for part in raw.split(","))
    if kind == "dist":
        parts = [Fraction(part.strip()) for part in raw.split(",")]
        return exact_distribution(parts)
    raise AssertionError(f"unknown kind {kind}")


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


def _lookup_kind(schema: dict, key: str) -> Optional[str]:
    name, index = _split_key(key)
    return schema.get((name, len(index)) if index else key)


def decode_config(raw: bytes) -> str:
    """A config file's bytes as text; a config must be UTF-8, and the first
    byte that is not is an issue at its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte starts or continues the last line of the text before it.
        line = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        reason = f"not UTF-8 text (byte {raw[exc.start]:#04x})"
        raise ConfigError([ConfigIssue("-", line, reason)]) from None


def parse_config(text: str, subcommand: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
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
        kind = _lookup_kind(schema, key)
        if kind is None:
            issues.append(ConfigIssue(key, lineno, f"unknown key for {subcommand}"))
            continue
        if not raw:
            issues.append(ConfigIssue(key, lineno, "missing value"))
            continue
        try:
            values[key] = _parse_scalar(kind, raw)
        except (ValueError, ZeroDivisionError) as exc:
            issues.append(ConfigIssue(key, lineno, str(exc)))
    if "subcommand" in values and values["subcommand"] != subcommand:
        issues.append(
            ConfigIssue("subcommand", lines_seen["subcommand"],
                        f"config says {values['subcommand']}, invoked as {subcommand}")
        )
    for key in _REQUIRED[subcommand]:
        if key not in values and not any(i.key == key for i in issues):
            issues.append(ConfigIssue(key, 0, "required key missing"))
    if subcommand in ("smb-run", "cond-entropy") and not (
        {"n_max", "sides"} & lines_seen.keys()
    ):
        issues.append(ConfigIssue("n_max", 0, "required key missing (or give sides)"))
    for key, default in _DEFAULTS.items():
        if key in schema:
            values.setdefault(key, default)
    cfg = ExperimentConfig(subcommand, values)
    if not issues:
        issues.extend(_cross_validate(cfg, lines_seen))
    if issues:
        raise ConfigError(issues)
    return cfg


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> None:
    """Replace keys of a parsed config by raw values, each read by its schema
    kind, and apply the cross-key rules again; issues cite line 0."""
    schema = _SCHEMAS[cfg.subcommand]
    issues = []
    for key, raw in overrides.items():
        try:
            cfg.values[key] = _parse_scalar(schema[key], raw)
        except ValueError as exc:
            issues.append(ConfigIssue(key, 0, str(exc)))
    issues = issues or _cross_validate(cfg, {})
    if issues:
        raise ConfigError(issues)


def _cross_validate(cfg: ExperimentConfig, lines: dict) -> list:
    """Issues that involve more than one key; each validator gives
    (key, reason) and the issue cites that key's line, or 0 if it is absent."""
    v = cfg.values
    sub = cfg.subcommand
    issues = _validate_variant(v, lines)
    if sub in ("smb-run", "cond-entropy", "cocycle-check"):
        issues.extend(_validate_model_rows(v))
    if sub in ("smb-run", "cond-entropy"):
        issues.extend(_validate_schedule(v))
    if sub == "cocycle-check":
        if _window_size(v.get("group", ZdGroup(1)), v["window_n"]) > _WINDOW_CAP:
            issues.append(("window_n", "window exceeds 2^20 points"))
    if sub == "folner-check":
        group = v["group"]
        cap = 6 if isinstance(group, HeisenbergGroup) else 64
        if v["n_max"] > cap:
            issues.append(("n_max", f"must be in 1..{cap} for {group.tag}"))
    if sub == "cover-demo":
        issues.extend(_validate_cover_keys(v))
    if "workers" in v and not 1 <= v["workers"] <= 64:
        issues.append(("workers", "must be in 1..64"))
    return [ConfigIssue(key, lines.get(key, 0), reason) for key, reason in issues]


def _validate_variant(v: dict, lines: dict) -> list:
    """Keys the file gives that only another model or cover kind reads, and
    the plain keys the chosen one reads but the config lacks."""
    issues = []
    for selector, variants in _VARIANTS.items():
        if selector not in v:
            continue
        reads, chosen = variants[v[selector]], f"{selector} = {v[selector]}"
        for key in lines:
            name, index = _split_key(key)
            if any(name in r for r in variants.values()) and reads.get(name) != len(index):
                issues.append((key, f"not read for {chosen}"))
        issues.extend((name, f"required for {chosen}")
                      for name, arity in reads.items() if arity == 0 and name not in v)
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
        if v.get("group", ZdGroup(1)) != ZdGroup(1):
            issues.append(("group", "markov model requires group = zd:1"))
    return issues


# The most points one window may hold, in SMB schedules and cocycle checks.
_WINDOW_CAP = 2 ** 20


def _window_size(group, n: int) -> int:
    """Points of the group's n-th standard window."""
    return math.prod(group.window_extents(n))


def _validate_schedule(v: dict) -> list:
    issues = []
    group = v.get("group", ZdGroup(1))
    sides = v.get("sides")
    n_max = v.get("n_max")
    if sides is not None:
        if isinstance(group, HeisenbergGroup):
            issues.append(("sides", "side schedules apply to zd groups only"))
        elif any(s < 1 for s in sides) or any(a >= b for a, b in zip(sides, sides[1:])):
            issues.append(("sides", "must be positive and strictly increasing"))
        elif _window_size(group, sides[-1]) > _WINDOW_CAP:
            issues.append(("sides", "largest window exceeds 2^20 points"))
    if n_max is not None:
        if _window_size(group, n_max) > _WINDOW_CAP:
            issues.append(("n_max", "largest window exceeds 2^20 points"))
    if sides is not None and n_max is not None:
        issues.append(("sides", "give either n_max or sides, not both"))
    return issues


def _validate_cover_keys(v: dict) -> list:
    """Each shape needs its center list and each center list its shape."""
    arity = _VARIANTS["kind"][v["kind"]]["shape"]
    shapes, centers = family(v, "shape", arity), family(v, "centers", arity)
    issues = [(key.replace("shape", "centers"), f"missing centers for {key}")
              for index, key in shapes.items() if index not in centers]
    issues += [(key, f"no {key.replace('centers', 'shape')} for these centers")
               for index, key in centers.items() if index not in shapes]
    if not shapes:
        issues.append(("shape_1" if arity == 1 else "shape_1_1", f"{v['kind']} form needs a shape"))
    return issues


def cover_family(cfg: ExperimentConfig) -> dict:
    """{index tuple: (shape size, centers)} of a validated cover-demo config:
    shape_i / centers_i for kind = greedy, shape_i_j / centers_i_j for random."""
    v = cfg.values
    arity = _VARIANTS["kind"][v["kind"]]["shape"]
    centers = family(v, "centers", arity)
    return {index: (v[key], v[centers[index]]) for index, key in family(v, "shape", arity).items()}


def build_model(cfg: ExperimentConfig):
    """Instantiate the model a validated config describes."""
    v = cfg.values
    model = v["model"]
    if model == "bernoulli":
        return BernoulliModel.create(v.get("group", ZdGroup(1)), v["p"])
    if model == "random-alphabet":
        rows = [v[key] for key in family(v, "fiber_p", 1).values()]
        return RandomAlphabetModel.create(v.get("group", ZdGroup(1)), v["base_p"], rows)
    if model == "markov":
        return MarkovModel.create([v[key] for key in family(v, "transition", 1).values()])
    raise AssertionError(model)
