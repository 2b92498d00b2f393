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


_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")

# Per-subcommand schema: key (or regex for indexed families) -> value kind.
# Kinds: u64, int:<min> (integer >= min), number, unit (rational in (0,1]),
# string, dist, intlist, choice:<a|b|...>.  Each int's minimum is the least
# value its runner can use.
_COMMON = {
    "seed": "u64",
    "out": "string",
    "subcommand": "choice:" + "|".join(SUBCOMMANDS),
    "tolerance": "number",
    "workers": "int:1",
}

_MODEL_KEYS = {
    "model": "choice:bernoulli|random-alphabet|markov",
    "group": "group",
    "p": "dist",
    "base_p": "dist",
    re.compile(r"^fiber_p_(\d+)$"): "dist",
    re.compile(r"^transition_(\d+)$"): "dist",
}

_SCHEMAS = {
    "smb-run": {
        **_COMMON, **_MODEL_KEYS,
        "n_max": "int:1", "sides": "intlist", "trajectories": "int:1",
    },
    "cond-entropy": {
        **_COMMON, **_MODEL_KEYS,
        "n_max": "int:1", "sides": "intlist",
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
        re.compile(r"^shape_(\d+)(_(\d+))?$"): "int:1",
        re.compile(r"^centers_(\d+)(_(\d+))?$"): "intlist",
    },
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


def _lookup_kind(schema: dict, key: str) -> Optional[str]:
    kind = schema.get(key)
    if kind is not None:
        return kind
    for pattern, k in schema.items():
        if isinstance(pattern, re.Pattern) and pattern.match(key):
            return k
    return None


def parse_config(text: str, subcommand: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand}")
    schema = _SCHEMAS[subcommand]
    issues = []
    values: dict = {}
    lines_seen: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            issues.append(ConfigIssue("-", lineno, "expected 'key = value'"))
            continue
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if not _KEY_RE.match(key):
            issues.append(ConfigIssue(key, lineno, "malformed key"))
            continue
        if key in lines_seen:
            issues.append(ConfigIssue(key, lineno, f"duplicate of line {lines_seen[key]}"))
            continue
        lines_seen[key] = lineno
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
        if _lookup_kind(schema, key) is not None:
            values.setdefault(key, default)
    cfg = ExperimentConfig(subcommand, values)
    if not issues:
        issues.extend(_cross_validate(cfg, lines_seen))
    if issues:
        raise ConfigError(issues)
    return cfg


def _indexed(values: dict, prefix: str) -> list:
    """Values of prefix_0, prefix_1, ... which must be contiguous from 0."""
    found = {}
    for key, v in values.items():
        m = re.fullmatch(re.escape(prefix) + r"_(\d+)", key)
        if m:
            found[int(m.group(1))] = v
    return [found[i] for i in range(len(found)) if i in found]


def _cross_validate(cfg: ExperimentConfig, lines: dict) -> list:
    """Issues that involve more than one key; each validator gives
    (key, reason) and the issue cites that key's line, or 0 if it is absent."""
    issues = []
    v = cfg.values
    sub = cfg.subcommand
    if sub in ("smb-run", "cond-entropy", "cocycle-check"):
        issues.extend(_validate_model_keys(v))
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


def _validate_model_keys(v: dict) -> list:
    issues = []
    model = v.get("model")
    if model == "bernoulli":
        if "p" not in v:
            issues.append(("p", "required for model = bernoulli"))
    elif model == "random-alphabet":
        base = v.get("base_p")
        if base is None:
            issues.append(("base_p", "required for model = random-alphabet"))
        else:
            rows = _indexed(v, "fiber_p")
            if len(rows) != len(base):
                issues.append((
                    "fiber_p_0",
                    f"need fiber_p_0..fiber_p_{len(base) - 1}, found {len(rows)} rows"))
            issues.extend(
                (f"fiber_p_{i}", f"must have the {len(rows[0])} symbols of fiber_p_0")
                for i, row in enumerate(rows) if len(row) != len(rows[0]))
    elif model == "markov":
        rows = _indexed(v, "transition")
        if not rows or any(len(r) != len(rows) for r in rows):
            issues.append((
                "transition_0", "need a square matrix transition_0..transition_{k-1}"))
        else:
            try:
                MarkovModel(tuple(rows)).stationary
            except ValueError as exc:
                issues.append(("transition_0", str(exc)))
        group = v.get("group")
        if group is not None and group != ZdGroup(1):
            issues.append(("group", "markov model requires group = zd:1"))
    return issues


# The most points one window may hold, in SMB schedules and cocycle checks.
_WINDOW_CAP = 2 ** 20


def _window_size(group, n: int) -> int:
    """Points of the n-th box window: n^d on Z^d, n^4 on the Heisenberg group."""
    return n ** 4 if isinstance(group, HeisenbergGroup) else n ** group.d


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
    issues = []
    kind = v.get("kind")
    shape_single = sorted(
        k for k in v if re.fullmatch(r"shape_\d+", k)
    )
    shape_double = sorted(
        k for k in v if re.fullmatch(r"shape_\d+_\d+", k)
    )
    if kind == "greedy":
        if not shape_single:
            issues.append(("shape_1", "greedy form needs shape_1, shape_2, ..."))
        for key in shape_single:
            centers_key = key.replace("shape", "centers")
            if centers_key not in v:
                issues.append((centers_key, f"missing centers for {key}"))
    elif kind == "random":
        if not shape_double:
            issues.append(("shape_1_1", "random form needs shape_i_j keys"))
        for key in shape_double:
            centers_key = key.replace("shape", "centers")
            if centers_key not in v:
                issues.append((centers_key, f"missing centers for {key}"))
        for key in ("k_set", "c", "alpha"):
            if key not in v:
                issues.append((key, "required for kind = random"))
    return issues


def build_model(cfg: ExperimentConfig):
    """Instantiate the model a validated config describes."""
    v = cfg.values
    model = v["model"]
    if model == "bernoulli":
        return BernoulliModel.create(v.get("group", ZdGroup(1)), v["p"])
    if model == "random-alphabet":
        return RandomAlphabetModel.create(
            v.get("group", ZdGroup(1)), v["base_p"], _indexed(v, "fiber_p")
        )
    if model == "markov":
        return MarkovModel.create(_indexed(v, "transition"))
    raise AssertionError(model)
