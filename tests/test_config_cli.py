"""Config parsing, validation diagnostics, and the CLI contract."""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fiberent.cli as cli_mod
import fiberent.config as config_mod
import fiberent.folner as folner_mod
from fiberent.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from fiberent.config import (
    SUBCOMMANDS,
    ConfigError,
    build_cover,
    build_model,
    decode_config,
    parse_config,
)
from fiberent.covering import CoverInstance, RandomCoverInstance
from fiberent.groups import HeisenbergGroup, ZdGroup, subset_from_coords
from fiberent.rds import BernoulliModel, MarkovModel, RandomAlphabetModel

CSV_HEADER = "n,folner_size,estimate,target,abs_error,std_error"

SMB_MIN = """
seed = 5
model = bernoulli
p = 0.7, 0.3
n_max = 4
trajectories = 6
"""


SMB_BASE = "seed = 5\nmodel = bernoulli\np = 0.7, 0.3\n"

COCYCLE_BASE = "seed = 3\nmodel = bernoulli\np = 0.5, 0.5\n"


def issues_of(text, subcommand):
    with pytest.raises(ConfigError) as err:
        parse_config(text, subcommand)
    return err.value.issues


class TestParsing:
    def test_minimal_config_with_defaults(self):
        cfg = parse_config(SMB_MIN, "smb-run")
        assert cfg.get("seed") == 5
        assert cfg.get("p") == (Fraction(7, 10), Fraction(3, 10))
        assert cfg.get("n_max") == 4
        assert cfg.get("trajectories") == 6
        assert cfg.get("workers") == 1
        assert "sides" not in cfg

    def test_defaults_are_schema_scoped(self):
        cond = parse_config("seed = 1\nmodel = bernoulli\np = 0.5, 0.5\nn_max = 2\n",
                            "cond-entropy")
        assert cond.get("method") == "exact"
        assert cond.get("samples") == 2000
        assert "trajectories" not in cond
        coc = parse_config("seed = 1\nmodel = bernoulli\np = 0.5, 0.5\n", "cocycle-check")
        assert coc.get("checks") == 1000
        assert coc.get("window_n") == 4
        assert coc.get("radius") == 5

    def test_comments_and_blank_lines(self):
        text = """
# full-line comment

seed = 5   # trailing comment
model = bernoulli
p = 0.7, 0.3  # exact rationals
n_max = 4
"""
        cfg = parse_config(text, "smb-run")
        assert cfg.get("seed") == 5
        assert cfg.get("p") == (Fraction(7, 10), Fraction(3, 10))

    def test_values_parse_exactly(self):
        cfg = parse_config(
            "seed = 1\nmodel = bernoulli\np = 1/3, 2/3\nn_max = 2\n", "smb-run"
        )
        assert cfg.get("p") == (Fraction(1, 3), Fraction(2, 3))

    def test_group_values(self):
        for raw, expected in (
            ("zd:1", ZdGroup(1)), ("zd:3", ZdGroup(3)), ("heisenberg", HeisenbergGroup())
        ):
            cfg = parse_config(
                f"seed = 1\nmodel = bernoulli\np = 0.5, 0.5\ngroup = {raw}\nn_max = 2\n",
                "smb-run",
            )
            assert cfg.get("group") == expected

    def test_unknown_subcommand(self):
        with pytest.raises(ValueError):
            parse_config("", "frobnicate")


class TestDiagnostics:
    def test_unknown_key_with_line_number(self):
        issues = issues_of(SMB_MIN + "banana = 3\n", "smb-run")
        assert len(issues) == 1
        assert issues[0].key == "banana"
        assert issues[0].line == 7
        assert "unknown key" in issues[0].reason

    def test_distribution_must_sum_to_one(self):
        issues = issues_of(SMB_MIN.replace("0.7, 0.3", "0.7, 0.4"), "smb-run")
        assert [i.key for i in issues] == ["p"]
        assert "sum" in issues[0].reason

    def test_missing_required_key(self):
        issues = issues_of("model = bernoulli\np = 0.5, 0.5\nn_max = 2\n", "smb-run")
        assert [(i.key, i.line) for i in issues] == [("seed", 0)]
        assert "required" in issues[0].reason

    @pytest.mark.parametrize("subcommand", ["smb-run", "cond-entropy"])
    def test_schedule_needs_n_max_or_sides(self, subcommand):
        base = "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\n"
        issues = issues_of(base, subcommand)
        assert [(i.key, i.line) for i in issues] == [("n_max", 0)]
        assert "required" in issues[0].reason and "sides" in issues[0].reason
        assert parse_config(base + "sides = 2, 4\n", subcommand).get("sides") == (2, 4)
        assert parse_config(base + "n_max = 3\n", subcommand).get("n_max") == 3

    @pytest.mark.parametrize("subcommand", ["smb-run", "cond-entropy"])
    def test_schedule_rejects_both_n_max_and_sides(self, subcommand):
        text = "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\nn_max = 3\nsides = 2, 4\n"
        issues = issues_of(text, subcommand)
        assert [i.key for i in issues] == ["sides"]
        assert "not both" in issues[0].reason

    def test_duplicate_key_cites_first_line(self):
        issues = issues_of(SMB_MIN + "seed = 6\n", "smb-run")
        assert issues[0].key == "seed"
        assert "duplicate of line 2" in issues[0].reason

    def test_multiple_issues_reported_together(self):
        text = "seed = -1\nmodel = bernoulli\np = 0.7, 0.4\nn_max = 4\nwhat = 1\n"
        issues = issues_of(text, "smb-run")
        assert {i.key for i in issues} == {"seed", "p", "what"}
        assert {i.line for i in issues} == {1, 3, 5}

    def test_malformed_lines(self):
        issues = issues_of(SMB_MIN + "no equals sign here\n= 3\n", "smb-run")
        reasons = [i.reason for i in issues]
        assert any("expected 'key = value'" in r for r in reasons)
        assert any("malformed key" in r for r in reasons)

    def test_missing_value(self):
        issues = issues_of(SMB_MIN + "tolerance =\n", "smb-run")
        assert issues[0].key == "tolerance"
        assert issues[0].reason == "missing value"

    def test_seed_range(self):
        assert "unsigned" in issues_of(
            SMB_MIN.replace("seed = 5", "seed = 18446744073709551616"), "smb-run"
        )[0].reason

    def test_subcommand_key_must_match_invocation(self):
        issues = issues_of(SMB_MIN + "subcommand = cover-demo\n", "smb-run")
        assert "invoked as smb-run" in issues[0].reason

    def test_folner_caps(self):
        assert "1..64" in issues_of(
            "seed = 1\ngroup = zd:2\nn_max = 65\n", "folner-check"
        )[0].reason
        assert "1..6" in issues_of(
            "seed = 1\ngroup = heisenberg\nn_max = 7\n", "folner-check"
        )[0].reason

    def test_window_volume_cap(self):
        issues = issues_of(
            "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\ngroup = zd:2\nn_max = 2000\n",
            "smb-run",
        )
        assert issues[0].key == "n_max"
        assert "2^20" in issues[0].reason

    @pytest.mark.parametrize("group, n_max", [("zd:1", 2047), ("zd:2", 184), ("heisenberg", 24)])
    @pytest.mark.parametrize("subcommand", ["smb-run", "cond-entropy"])
    def test_schedule_points_are_capped_in_total_at_their_line(self, subcommand, group, n_max):
        # n_max is the last schedule whose windows hold at most 2^21 points
        # together (zd:1: 2,096,128; n_max + 1 gives 2,098,176).
        base = f"seed = 1\nmodel = bernoulli\np = 0.5, 0.5\ngroup = {group}\n"
        assert parse_config(base + f"n_max = {n_max}\n", subcommand).get("n_max") == n_max
        assert [str(i) for i in issues_of(base + f"n_max = {n_max + 1}\n", subcommand)] == [
            "key 'n_max' (line 5): windows exceed 2^21 points in total"]

    def test_sides_points_are_capped_in_total_at_their_line(self):
        base = "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\n"
        top = 2 ** 20  # the largest window allowed, summing to 2^21 with its partners
        assert parse_config(base + f"sides = 1, {top - 1}, {top}\n", "smb-run").get("sides")
        assert [str(i) for i in issues_of(base + f"sides = 2, {top - 1}, {top}\n", "smb-run")] == [
            "key 'sides' (line 4): windows exceed 2^21 points in total"]
        # the largest window's own cap is reported first, and alone
        assert [i.reason for i in issues_of(base + f"sides = 1, {top + 1}\n", "smb-run")] == [
            "largest window exceeds 2^20 points"]

    def test_sides_schedule_validation(self):
        base = "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\nn_max = 4\n"
        assert "strictly increasing" in issues_of(
            base + "sides = 4, 2\n", "smb-run"
        )[0].reason

    def test_heisenberg_sides_run_as_their_n_max(self, tmp_path):
        heis = "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\ngroup = heisenberg\ntrajectories = 4\n"
        csvs = []
        for name, schedule in (("sides", "sides = 1, 2, 3\n"), ("n_max", "n_max = 3\n")):
            (tmp_path / name).mkdir()
            rc, out = run(tmp_path / name, "smb-run", heis + schedule)
            assert rc == EXIT_OK
            csvs.append(Path(out).read_bytes())
        assert csvs[0] == csvs[1]

    def test_workers_range(self):
        issues = issues_of(SMB_MIN + "workers = 65\n", "smb-run")
        assert issues[0].key == "workers"

    def test_cross_key_issues_cite_their_own_line(self):
        text = COCYCLE_BASE + "group = zd:2\nchecks = 4\n\nwindow_n = 2000\n"
        assert [str(i) for i in issues_of(text, "cocycle-check")] == [
            "key 'window_n' (line 7): window exceeds 2^20 points"]
        workers = issues_of(SMB_MIN + "workers = 65\n", "smb-run")
        assert [(i.key, i.line) for i in workers] == [("workers", 7)]
        folner = issues_of("seed = 1\nn_max = 65\ngroup = zd:2\n", "folner-check")
        assert [(i.key, i.line) for i in folner] == [("n_max", 2)]
        # a key that is absent keeps line 0
        absent = issues_of("seed = 1\nmodel = bernoulli\nn_max = 2\n", "smb-run")
        assert [(i.key, i.line) for i in absent] == [("p", 0)]

    def test_markov_shape_validation(self):
        base = "seed = 1\nmodel = markov\n"
        assert "square" in issues_of(
            base + "transition_0 = 0.5, 0.5\n", "cocycle-check"
        )[0].reason
        assert "zd:1" in issues_of(
            base + "group = zd:2\ntransition_0 = 0.9, 0.1\ntransition_1 = 0.2, 0.8\n",
            "cocycle-check",
        )[0].reason

    def test_fiber_rows_share_one_alphabet(self):
        text = ("seed = 1\nmodel = random-alphabet\nbase_p = 0.5, 0.5\n"
                "fiber_p_0 = 0.5, 0.5\nfiber_p_1 = 1\nn_max = 2\n")
        assert [str(i) for i in issues_of(text, "smb-run")] == [
            "key 'fiber_p_1' (line 5): must have the 2 symbols of fiber_p_0"]

    def test_markov_needs_a_unique_stationary_vector(self):
        text = "seed = 1\nmodel = markov\nn_max = 2\ntransition_0 = 1, 0\ntransition_1 = 0, 1\n"
        assert [str(i) for i in issues_of(text, "smb-run")] == [
            "key 'transition_0' (line 4): transition matrix has no unique stationary vector"]

    def test_random_alphabet_row_count(self):
        text = ("seed = 1\nmodel = random-alphabet\nbase_p = 0.5, 0.5\n"
                "fiber_p_0 = 0.5, 0.5\nn_max = 2\n")
        assert "fiber_p_1" in issues_of(text, "smb-run")[0].reason

    def test_cover_demo_requires_matching_centers(self):
        text = "seed = 1\nkind = greedy\nambient_n = 10\ndelta = 0.1\nepsilon = 0.5\nshape_1 = 2\n"
        issues = issues_of(text, "cover-demo")
        assert issues[0].key == "centers_1"
        random_text = ("seed = 1\nkind = random\nambient_n = 10\n"
                       "delta = 0.1\nepsilon = 0.5\nshape_1_1 = 2\ncenters_1_1 = 0, 2\n")
        missing = {i.key for i in issues_of(random_text, "cover-demo")}
        assert missing == {"k_set", "c", "alpha"}

    def test_unit_interval_keys(self):
        text = "seed = 1\nkind = greedy\nambient_n = 10\ndelta = 1\nepsilon = 0.5\nshape_1 = 2\ncenters_1 = 0\n"
        issues = issues_of(text, "cover-demo")
        assert issues[0].key == "delta"
        assert "between 0 and 1" in issues[0].reason


class TestBuildModel:
    def test_bernoulli(self):
        model = build_model(parse_config(SMB_MIN, "smb-run"))
        assert isinstance(model, BernoulliModel)
        assert model.group == ZdGroup(1)
        assert model.p == (Fraction(7, 10), Fraction(3, 10))

    def test_random_alphabet(self):
        text = ("seed = 1\nmodel = random-alphabet\ngroup = zd:2\nbase_p = 0.5, 0.5\n"
                "fiber_p_0 = 0.5, 0.5\nfiber_p_1 = 0.9, 0.1\nn_max = 2\n")
        model = build_model(parse_config(text, "smb-run"))
        assert isinstance(model, RandomAlphabetModel)
        assert model.group == ZdGroup(2)
        assert model.fiber_ps[1] == (Fraction(9, 10), Fraction(1, 10))

    def test_markov(self):
        text = ("seed = 1\nmodel = markov\ntransition_0 = 0.9, 0.1\n"
                "transition_1 = 0.2, 0.8\nn_max = 4\n")
        model = build_model(parse_config(text, "smb-run"))
        assert isinstance(model, MarkovModel)
        assert model.transition[0] == (Fraction(9, 10), Fraction(1, 10))


def points(*cs):
    return subset_from_coords(ZdGroup(1), [(c,) for c in cs])


class TestBuildCover:
    def test_random_rows_group_by_first_index(self):
        text = ("seed = 4\nkind = random\nambient_n = 40\ndelta = 0.25\nepsilon = 0.5\n"
                "alpha = 0.1\nc = 6\nk_set = 0, 1\nsamples = 200\n"
                "shape_1_1 = 2\ncenters_1_1 = 0, 4, 8\nshape_1_2 = 3\ncenters_1_2 = 1, 9\n"
                "shape_2_1 = 5\ncenters_2_1 = 0, 5, 10\n")
        Z = ZdGroup(1)
        expected = RandomCoverInstance.create(
            Z.box(40), [[Z.box(2), Z.box(3)], [Z.box(5)]],
            [[points(0, 4, 8), points(1, 9)], [points(0, 5, 10)]], points(0, 1),
            6, Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
        )
        assert build_cover(parse_config(text, "cover-demo")) == expected

    def test_greedy_shapes_in_index_order_across_a_gap(self):
        text = ("seed = 9\nkind = greedy\nambient_n = 36\ndelta = 0.2\nepsilon = 0.5\n"
                "shape_3 = 6\ncenters_3 = 0, 6, 12\nshape_1 = 3\ncenters_1 = 0, 3, 6, 9\n")
        Z = ZdGroup(1)
        expected = CoverInstance.create(
            Z.box(36), [Z.box(3), Z.box(6)], [points(0, 3, 6, 9), points(0, 6, 12)],
            Fraction(1, 5), Fraction(1, 2),
        )
        assert build_cover(parse_config(text, "cover-demo")) == expected


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(tmp_path, subcommand, text, *extra):
    cfg = write_cfg(tmp_path, f"{subcommand}.cfg", text)
    out = str(tmp_path / f"{subcommand}.csv")
    rc = main([subcommand, "--config", cfg, "--out", out, *extra])
    return rc, out


def test_schedules_stay_within_a_memory_limit(tmp_path):
    """In a child process with its own RLIMIT_AS of 256 MiB, zd:1 n_max = 4096
    (8.4 M window points, 1,040 MiB RSS when every window was held at once)
    exits 2 at its line before it builds a window, and the largest schedule
    the cap admits, n_max = 2047, runs to its CSV.  Holding one window at a
    time, that run peaked at 37 MiB RSS and passed under 128 MiB of address
    space; holding them all, it peaked at 316 MiB and failed (exit 5) under
    256, 320 and 384 MiB."""
    limit = 256 << 20
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "from fiberent.cli import main; sys.exit(main(sys.argv[1:]))" % (limit, limit))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [str(Path(cli_mod.__file__).resolve().parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])])}

    def smb_run(n_max):
        cfg = write_cfg(tmp_path, f"n{n_max}.cfg", "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\n"
                        f"n_max = {n_max}\ntrajectories = 1\n")
        out = tmp_path / f"n{n_max}.csv"
        return subprocess.run(
            [sys.executable, "-c", code, "smb-run", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120), out

    over, out = smb_run(4096)
    assert over.returncode == EXIT_CONFIG, over.stderr
    assert "key 'n_max' (line 4): windows exceed 2^21 points in total" in over.stderr
    assert not out.exists()
    largest, out = smb_run(2047)
    assert largest.returncode == EXIT_OK, largest.stderr
    assert len(out.read_text().splitlines()) == 1 + 2047


def test_smb_and_cond_entropy_runs_build_no_folner_sequence(tmp_path, monkeypatch):
    """Both runners hand the traces a generator of windows, one at a time."""
    def refuse(*args, **kwargs):
        raise AssertionError("a FolnerSequence was built")

    monkeypatch.setattr(folner_mod, "window_folner", refuse)
    monkeypatch.setattr(folner_mod, "FolnerSequence", refuse)
    rc, out = run(tmp_path, "smb-run", SMB_BASE + "sides = 2, 5, 9\ntrajectories = 3\n")
    assert rc == EXIT_OK
    assert [line.split(",")[1] for line in Path(out).read_text().splitlines()[1:]] == [
        "2", "5", "9"]
    rc, out = run(tmp_path, "cond-entropy", "seed = 7\nmodel = markov\ntransition_0 = 0.9, 0.1\n"
                  "transition_1 = 0.2, 0.8\nn_max = 4\nmethod = monte-carlo\nsamples = 5\n")
    assert rc == EXIT_OK
    assert len(Path(out).read_text().splitlines()) == 1 + 4


def test_folner_check_streams_its_windows(tmp_path, monkeypatch):
    """folner-check builds no FolnerSequence and holds at most two windows at a
    time, and writes the artifacts the sequence-built check wrote."""
    text = "seed = 1\ngroup = zd:2\nn_max = 6\n"
    live = weakref.WeakSet()
    box = ZdGroup.box

    def tracked(self, *extents):
        F = box(self, *extents)
        assert len(live) <= 1, "a third window is held"
        live.add(F)
        return F

    expected_csv = "\n".join([CSV_HEADER, *(
        f"{n},{n * n},{float(Fraction(2 * n - 2, n) ** 2):.12g},,," for n in range(2, 7))]) + "\n"
    monkeypatch.setattr(folner_mod, "window_folner", lambda *a: pytest.fail("sequence built"))
    monkeypatch.setattr(ZdGroup, "box", tracked)
    rc, out = run(tmp_path, "folner-check", text)
    assert rc == EXIT_OK
    assert Path(out).read_text() == expected_csv
    summary = read_summary(out)
    assert summary["sets"] == "6"
    assert summary["max_tempered"] == str(Fraction(100, 36))


def read_summary(out):
    pairs = []
    with open(out + ".summary") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(": ")
            pairs.append((key, value))
    return dict(pairs)


class TestCliRuns:
    def test_uniform_bernoulli_golden_csv(self, tmp_path):
        text = ("seed = 9\nmodel = bernoulli\ngroup = zd:1\np = 0.5, 0.5\n"
                "n_max = 5\ntrajectories = 4\n")
        rc, out = run(tmp_path, "smb-run", text)
        assert rc == EXIT_OK
        lines = Path(out).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # a uniform product measure has bit-exact rate ln 2 on every draw
        assert lines[1:] == [
            f"{n},{n},0.69314718056,0.69314718056,0,0" for n in range(1, 6)
        ]
        summary = read_summary(out)
        assert summary["assertion"] == "pass"
        assert summary["seed"] == "9"
        assert summary["rng"] == "2"
        assert summary["csv"] == out

    def test_cond_entropy_golden_csv(self, tmp_path):
        text = "seed = 5\nmodel = bernoulli\np = 0.7, 0.3\nn_max = 4\nmethod = exact\n"
        rc, out = run(tmp_path, "cond-entropy", text)
        assert rc == EXIT_OK
        lines = Path(out).read_text().splitlines()
        # std_error stays empty for the exact method
        assert lines[1:] == [
            f"{n},{n},0.610864302055,0.610864302055,0," for n in range(1, 5)
        ]
        assert read_summary(out)["method"] == "exact"

    def test_markov_cond_entropy_rows(self, tmp_path):
        text = ("seed = 5\nmodel = markov\ntransition_0 = 0.9, 0.1\n"
                "transition_1 = 0.2, 0.8\nn_max = 5\ntolerance = 0.005\n")
        rc, out = run(tmp_path, "cond-entropy", text)
        assert rc == EXIT_OK
        rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
        assert rows[0][2] == "0.636514168295"
        for row in rows[1:]:
            assert row[2] == "0.383522790107"
            assert row[4] == "0"

    def test_reproducible_bytes_and_seed_sensitivity(self, tmp_path):
        text = ("seed = 21\nmodel = markov\ntransition_0 = 0.9, 0.1\n"
                "transition_1 = 0.2, 0.8\nn_max = 6\ntrajectories = 8\n")
        rc1, out1 = run(tmp_path, "smb-run", text)
        cfg = write_cfg(tmp_path, "again.cfg", text)
        out2 = str(tmp_path / "again.csv")
        rc2 = main(["smb-run", "--config", cfg, "--out", out2])
        assert rc1 == rc2 == EXIT_OK
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        out3 = str(tmp_path / "reseeded.csv")
        rc3 = main(["smb-run", "--config", cfg, "--out", out3, "--seed", "22"])
        assert rc3 == EXIT_OK
        assert Path(out1).read_bytes() != Path(out3).read_bytes()
        assert read_summary(out3)["seed"] == "22"

    def test_workers_override_does_not_change_bytes(self, tmp_path):
        text = ("seed = 3\nmodel = bernoulli\ngroup = zd:2\np = 0.7, 0.3\n"
                "n_max = 6\ntrajectories = 10\n")
        rc1, out1 = run(tmp_path, "smb-run", text)
        cfg = write_cfg(tmp_path, "w4.cfg", text)
        out4 = str(tmp_path / "w4.csv")
        rc4 = main(["smb-run", "--config", cfg, "--out", out4, "--workers", "4"])
        assert rc1 == rc4 == EXIT_OK
        assert Path(out1).read_bytes() == Path(out4).read_bytes()

    def test_assertion_failure_still_writes_artifacts(self, tmp_path):
        text = ("seed = 9\nmodel = bernoulli\np = 0.7, 0.3\nn_max = 6\n"
                "trajectories = 5\ntolerance = 1e-12\n")
        rc, out = run(tmp_path, "smb-run", text)
        assert rc == EXIT_ASSERTION
        summary = read_summary(out)
        assert summary["assertion"] == "fail"
        assert Path(out).read_text().startswith(CSV_HEADER)

    def test_folner_check_z3(self, tmp_path):
        text = "seed = 1\ngroup = zd:3\nn_max = 8\ntempered_bound = 8\n"
        rc, out = run(tmp_path, "folner-check", text)
        assert rc == EXIT_OK
        summary = read_summary(out)
        assert summary["assertion"] == "pass"
        assert summary["identity_ok"] == "True"
        assert summary["nested_ok"] == "True"
        assert Fraction(summary["max_tempered"]) <= 8
        # one tempered row per n >= 2
        assert len(Path(out).read_text().splitlines()) == 8

    def test_folner_check_one_window_passes_its_bound(self, tmp_path):
        # F_1 alone has no tempered constant, so no bound can be violated
        text = "seed = 1\ngroup = zd:2\nn_max = 1\ntempered_bound = 4\n"
        rc, out = run(tmp_path, "folner-check", text)
        assert rc == EXIT_OK
        summary = read_summary(out)
        assert summary["max_tempered"] == "none"
        assert summary["assertion"] == "pass"
        assert Path(out).read_text() == CSV_HEADER + "\n"

    def test_cocycle_check(self, tmp_path):
        text = ("seed = 13\nmodel = markov\ntransition_0 = 0.9, 0.1\n"
                "transition_1 = 0.2, 0.8\nchecks = 40\nwindow_n = 4\nradius = 4\n")
        rc, out = run(tmp_path, "cocycle-check", text)
        assert rc == EXIT_OK
        summary = read_summary(out)
        assert summary["passed"] == "40"
        assert summary["assertion"] == "pass"
        row = Path(out).read_text().splitlines()[1].split(",")
        assert row[2] == "1"

    def test_cover_demo_greedy(self, tmp_path):
        text = ("seed = 1\nkind = greedy\nambient_n = 10\ndelta = 0.1\nepsilon = 0.5\n"
                "shape_1 = 2\ncenters_1 = 0, 2, 4, 6, 8\n")
        rc, out = run(tmp_path, "cover-demo", text)
        assert rc == EXIT_OK
        summary = read_summary(out)
        assert summary["kind"] == "greedy"
        assert summary["hypotheses"] == "pass"
        assert summary["picks"] == "5"
        assert summary["total_size"] == "10"
        assert summary["union_size"] == "10"
        assert summary["disjointness_ok"] == "True"
        assert summary["coverage_ok"] == "True"
        assert summary["assertion"] == "pass"

    def test_cover_demo_greedy_conclusion_failure(self, tmp_path):
        # step-9 chain: hypotheses pass, the (1+delta) inequality does not
        centers = ", ".join(str(9 * k) for k in range(12))
        text = ("seed = 1\nkind = greedy\nambient_n = 110\ndelta = 0.1\nepsilon = 0.5\n"
                f"shape_1 = 10\ncenters_1 = {centers}\n")
        rc, out = run(tmp_path, "cover-demo", text)
        assert rc == EXIT_ASSERTION
        summary = read_summary(out)
        assert summary["hypotheses"] == "pass"
        assert summary["disjointness_ok"] == "False"
        assert summary["assertion"] == "fail"

    def test_cover_demo_hypothesis_failure(self, tmp_path):
        text = ("seed = 1\nkind = greedy\nambient_n = 10\ndelta = 0.1\nepsilon = 0.5\n"
                "shape_1 = 3\ncenters_1 = 8\n")
        rc, out = run(tmp_path, "cover-demo", text)
        assert rc == EXIT_ASSERTION
        summary = read_summary(out)
        assert summary["hypotheses"] == "fail"
        assert summary["hypothesis_failure"] == "shape-containment-1"
        assert summary["assertion"] == "fail"

    def test_cover_demo_random(self, tmp_path):
        centers = ", ".join(str(3 * k) for k in range(18))
        text = ("seed = 11\nkind = random\nambient_n = 60\ndelta = 0.25\nepsilon = 0.5\n"
                "alpha = 0.08\nc = 6\nk_set = 0, 1\nsamples = 150\n"
                f"shape_1_1 = 4\ncenters_1_1 = {centers}\n")
        rc, out = run(tmp_path, "cover-demo", text)
        assert rc == EXIT_OK
        summary = read_summary(out)
        assert summary["kind"] == "random"
        assert summary["samples"] == "150"
        assert summary["multiplicity_ok"] == "True"
        assert summary["coverage_ok"] == "True"
        assert float(summary["max_conditional_multiplicity"]) < 1.3

    def test_cover_demo_verifies_samples_as_they_are_drawn(self, tmp_path, monkeypatch):
        # sample k - 2 is gone when sample k is drawn: the verifier's loop
        # still names sample k - 1, and nothing keeps the ones before it
        real = cli_mod.verify_random_cover
        drawn = []

        def watching(inst, solutions):
            assert iter(solutions) is solutions

            def watched():
                for sol in solutions:
                    drawn.append(weakref.ref(sol))
                    if len(drawn) > 2:
                        assert drawn[-3]() is None
                    yield sol

            return real(inst, watched())

        monkeypatch.setattr(cli_mod, "verify_random_cover", watching)
        centers = ", ".join(str(3 * k) for k in range(18))
        text = ("seed = 11\nkind = random\nambient_n = 60\ndelta = 0.25\nepsilon = 0.5\n"
                "alpha = 0.08\nc = 6\nk_set = 0, 1\nsamples = 120\n"
                f"shape_1_1 = 4\ncenters_1_1 = {centers}\n")
        rc, out = run(tmp_path, "cover-demo", text)
        assert rc == EXIT_OK
        assert len(drawn) == 120
        assert read_summary(out)["samples"] == "120"

    def test_exit_codes_for_bad_input(self, tmp_path, capsys):
        rc = main(["smb-run", "--config", str(tmp_path / "missing.cfg")])
        assert rc == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

        bad = write_cfg(tmp_path, "bad.cfg", "seed = 1\nmodel = bernoulli\nn_max = 4\n")
        rc = main(["smb-run", "--config", bad])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "'p'" in err

    @pytest.mark.parametrize("raw, line, byte", [
        (b"seed = 1\xff\n", 1, "0xff"),
        (b"seed = 1\r\n# caf\xc3\xa9\r\ngroup = zd:2\nn_max = \xe9\n", 4, "0xe9"),
        (b"\xef\xbb\xbfseed = 1\n\xff\n", 2, "0xff"),
    ], ids=["first-line", "later-line", "after-byte-order-mark"])
    def test_non_utf8_config_is_config_error(self, tmp_path, capsys, raw, line, byte):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(raw)
        out = tmp_path / "out.csv"
        rc = main(["folner-check", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: key '-' (line {line}): not UTF-8 text (byte {byte})\n")
        assert not out.exists() and not Path(f"{out}.summary").exists()

    @pytest.mark.parametrize("subcommand, base, bad", [
        ("cocycle-check", COCYCLE_BASE, "checks = 0"),
        ("cocycle-check", COCYCLE_BASE, "window_n = 0"),
        ("cocycle-check", COCYCLE_BASE, "radius = -1"),
        ("smb-run", SMB_BASE + "n_max = 4\n", "trajectories = 0"),
        ("smb-run", SMB_BASE, "n_max = 0"),
        ("folner-check", "seed = 1\ngroup = zd:2\n", "n_max = 0"),
        ("cover-demo", "seed = 1\nkind = greedy\ndelta = 0.25\nepsilon = 0.5\n"
                       "shape_1 = 2\ncenters_1 = 0\n", "ambient_n = 0"),
        ("cover-demo", "seed = 11\nkind = random\nambient_n = 60\ndelta = 0.25\n"
                       "epsilon = 0.5\nalpha = 0.08\nc = 6\nk_set = 0, 1\n"
                       "shape_1_1 = 4\ncenters_1_1 = 0, 3\n", "samples = 99"),
        ("cover-demo", "seed = 11\nkind = random\nambient_n = 60\ndelta = 0.25\n"
                       "epsilon = 0.5\nalpha = 0.08\nc = 6\nk_set = 0, 1\n"
                       "centers_1_1 = 0, 3\n", "shape_1_1 = 0"),
        ("cond-entropy", SMB_BASE + "n_max = 3\nmethod = monte-carlo\n", "samples = 0"),
    ], ids=["checks", "window_n", "radius", "trajectories", "smb-n_max", "folner-n_max",
            "ambient_n", "cover-samples", "shape", "cond-samples"])
    def test_int_below_its_minimum_is_config_error(self, tmp_path, capsys, subcommand, base, bad):
        text = base + bad + "\n"
        rc, out = run(tmp_path, subcommand, text)
        assert rc == EXIT_CONFIG
        key = bad.split(" = ")[0]
        line = text.splitlines().index(bad) + 1
        err = capsys.readouterr().err
        assert f"config error: key '{key}' (line {line}): must be >=" in err
        assert not Path(out).exists()

    # Each count key is capped in its kind: a run over the cap exits 2 at the
    # key's line, before any work.  Uncapped, trajectories = 10^9 died of a
    # MemoryError (exit 5) while smb_trace built its task list.
    @pytest.mark.parametrize("subcommand, base, bad, reason", [
        ("smb-run", SMB_BASE + "n_max = 4\n", "trajectories = 1000000000", "1..1000000"),
        ("smb-run", SMB_BASE + "n_max = 4\n", "trajectories = 1000001", "1..1000000"),
        ("smb-run", SMB_BASE + "n_max = 4\n", "workers = 65", "1..64"),
        ("cocycle-check", COCYCLE_BASE, "checks = 1000001", "1..1000000"),
        ("cond-entropy", SMB_BASE + "n_max = 3\nmethod = monte-carlo\n", "samples = 1000001",
         "1..1000000"),
        ("cover-demo", "seed = 11\nkind = random\nambient_n = 60\ndelta = 0.25\n"
                       "epsilon = 0.5\nalpha = 0.08\nc = 6\nk_set = 0, 1\n"
                       "shape_1_1 = 4\ncenters_1_1 = 0, 3\n", "samples = 1000001", "100..1000000"),
    ], ids=["trajectories-1e9", "trajectories", "workers", "checks", "cond-samples",
            "cover-samples"])
    def test_int_above_its_maximum_is_config_error(self, tmp_path, capsys, subcommand, base,
                                                   bad, reason):
        text = base + bad + "\n"
        rc, out = run(tmp_path, subcommand, text)
        assert rc == EXIT_CONFIG
        key = bad.split(" = ")[0]
        line = text.splitlines().index(bad) + 1
        assert capsys.readouterr().err == (
            f"config error: key '{key}' (line {line}): must be in {reason}\n")
        assert not Path(out).exists()

    # Runs read every number and distribution as floats: a value past float
    # range is rejected at its line.  `p` and its kin escaped parse_config as
    # an OverflowError (a traceback, exit 1), and `tolerance` exited 5 at the
    # summary.
    @pytest.mark.parametrize("subcommand, base, bad", [
        ("smb-run", "seed = 5\nmodel = bernoulli\nn_max = 4\n", "p = 1e400, 1"),
        ("smb-run", "seed = 5\nmodel = bernoulli\nn_max = 4\n", "p = 1e308, 1e308"),
        ("smb-run", "seed = 5\nmodel = random-alphabet\nn_max = 4\nfiber_p_0 = 0.5, 0.5\n",
         "base_p = 1e400, 1"),
        ("smb-run", "seed = 5\nmodel = random-alphabet\nn_max = 4\nbase_p = 1\n",
         "fiber_p_0 = 1e400, 1"),
        ("smb-run", "seed = 5\nmodel = markov\nn_max = 4\ntransition_1 = 0.5, 0.5\n",
         "transition_0 = 1e400, 1"),
        ("smb-run", SMB_BASE + "n_max = 4\n", "tolerance = 1e400"),
        ("cover-demo", "seed = 11\nkind = random\nambient_n = 60\ndelta = 0.25\n"
                       "epsilon = 0.5\nalpha = 0.08\nk_set = 0, 1\n"
                       "shape_1_1 = 4\ncenters_1_1 = 0, 3\n", "c = 1e400"),
        ("folner-check", "seed = 1\ngroup = zd:2\nn_max = 2\n", "tempered_bound = 1e400"),
    ], ids=["p", "p-total", "base_p", "fiber_p_0", "transition_0", "tolerance", "c",
            "tempered_bound"])
    def test_value_past_float_range_is_config_error(self, tmp_path, capsys, subcommand, base,
                                                    bad):
        text = base + bad + "\n"
        rc, out = run(tmp_path, subcommand, text)
        assert rc == EXIT_CONFIG
        key = bad.split(" = ")[0]
        line = text.splitlines().index(bad) + 1
        assert capsys.readouterr().err == (
            f"config error: key '{key}' (line {line}): must convert to a finite float\n")
        assert not Path(out).exists()

    def test_float_range_ends_where_float_rounds_to_inf(self):
        least_inf = 2 ** 1024 - 2 ** 970  # the largest float plus half its ulp
        for v in (least_inf - 1, -(least_inf - 1)):
            cfg = parse_config(SMB_BASE + f"n_max = 4\ntolerance = {v}\n", "smb-run")
            assert abs(float(cfg.get("tolerance"))) == 1.7976931348623157e308
        (issue,) = issues_of(SMB_BASE + f"n_max = 4\ntolerance = {least_inf}\n", "smb-run")
        assert (issue.key, issue.line) == ("tolerance", 5)
        with pytest.raises(OverflowError):
            float(Fraction(least_inf))

    def test_count_caps_admit_their_maximum(self):
        cfg = parse_config(COCYCLE_BASE + "checks = 1000000\n", "cocycle-check")
        assert cfg.get("checks") == 10 ** 6

    # smb-run keeps a value per trajectory per row, so their product is capped
    # too, at the trajectories line.
    def test_trajectories_times_rows_is_capped_at_its_line(self):
        text = SMB_BASE + "trajectories = 1000000\nsides = 1, 2, 3, 4, 5\n"
        assert [str(i) for i in issues_of(text, "smb-run")] == [
            "key 'trajectories' (line 4): 5 rows x trajectories exceeds 2^22"]
        assert parse_config(SMB_BASE + "trajectories = 1000000\nn_max = 4\n", "smb-run")
        assert parse_config(SMB_BASE + "trajectories = 4096\nn_max = 1024\n", "smb-run")
        assert issues_of(SMB_BASE + "trajectories = 4097\nn_max = 1024\n",
                         "smb-run")[0].key == "trajectories"

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ok.cfg",
                        "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\nn_max = 2\ntrajectories = 2\n")
        rc = main(["smb-run", "--config", cfg, "--out",
                   str(tmp_path / "no" / "such" / "dir.csv")])
        assert rc == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_artifacts_are_replaced_whole(self, tmp_path, capsys, monkeypatch):
        text = "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\nn_max = 2\ntrajectories = 2\n"
        rc, good = run(tmp_path, "smb-run", text)
        assert rc == EXIT_OK
        cfg = write_cfg(tmp_path, "again.cfg", text)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        out = blocked / "run.csv"
        out.write_text("stale,old")
        (blocked / "run.csv.summary").mkdir()
        rc = main(["smb-run", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in blocked.iterdir()) == ["run.csv", "run.csv.summary"]
        assert out.read_text() == Path(good).read_text()

        # A failing rename leaves the old CSV as it was, and no temporary file.
        out.write_text("stale,old")

        def no_rename(src, dst):
            raise PermissionError(f"cannot rename onto {dst}")

        monkeypatch.setattr(cli_mod.os, "replace", no_rename)
        rc = main(["smb-run", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in blocked.iterdir()) == ["run.csv", "run.csv.summary"]
        assert out.read_text() == "stale,old"

    @pytest.mark.parametrize("group, window_n", [("heisenberg", 100), ("zd:3", 102)])
    def test_cocycle_window_cap(self, tmp_path, capsys, group, window_n):
        text = f"{COCYCLE_BASE}group = {group}\nwindow_n = {window_n}\n"
        rc, out = run(tmp_path, "cocycle-check", text)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: key 'window_n'" in err and "2^20" in err
        assert not Path(out).exists()
        largest = 32 if group == "heisenberg" else 101
        fits = f"{COCYCLE_BASE}group = {group}\nwindow_n = {largest}\n"
        assert parse_config(fits, "cocycle-check").get("window_n") == largest

    @pytest.mark.parametrize("model_keys, key, line", [
        ("model = random-alphabet\nbase_p = 0.5, 0.5\n"
         "fiber_p_0 = 0.5, 0.5\nfiber_p_1 = 1\n", "fiber_p_1", 6),
        ("model = markov\ntransition_0 = 1, 0\ntransition_1 = 0, 1\n", "transition_0", 4),
    ], ids=["fiber-alphabets", "markov-stationary"])
    def test_model_defects_are_config_errors(self, tmp_path, capsys, model_keys, key, line):
        rc, out = run(tmp_path, "smb-run", "seed = 1\nn_max = 2\n" + model_keys)
        assert rc == EXIT_CONFIG
        assert f"config error: key '{key}' (line {line}): " in capsys.readouterr().err
        assert not Path(out).exists()

    # Indexed families are read whole, and a key no run of this config reads
    # is rejected: each of these ran to exit 0 on a model or instance other
    # than the file states.
    @pytest.mark.parametrize("subcommand, text, key", [
        ("smb-run", "model = markov\ntransition_0 = 1\ntransition_3 = 0.5, 0.5\n",
         "transition_3"),
        ("smb-run", "model = random-alphabet\nbase_p = 1\nfiber_p_7 = 0.5, 0.5\n"
                    "fiber_p_0 = 0.5, 0.5\n", "fiber_p_7"),
        ("smb-run", "model = random-alphabet\nbase_p = 0.5, 0.5\nfiber_p_0 = 0.5, 0.5\n"
                    "fiber_p_01 = 0.9, 0.1\nfiber_p_1 = 0.5, 0.5\n", "fiber_p_1"),
        ("cover-demo", "kind = greedy\nshape_1 = 2\ncenters_1 = 0, 2, 4\ncenters_7 = 3\n",
         "centers_7"),
        ("cover-demo", "kind = greedy\nshape_1 = 2\ncenters_1 = 0, 2, 4\nshape_2_1 = 5\n",
         "shape_2_1"),
        ("cover-demo", "kind = random\nalpha = 0.08\nc = 6\nk_set = 0, 1\nshape_1_1 = 4\n"
                       "centers_1_1 = 0, 3\nshape_3 = 4\n", "shape_3"),
        ("cover-demo", "kind = random\nalpha = 0.08\nc = 6\nk_set = 0, 1\nshape_1_1 = 4\n"
                       "centers_1_1 = 0, 3\ncenters_2_2 = 0\n", "centers_2_2"),
        ("folner-check", "group = zd:2\ntolerance = 0.1\n", "tolerance"),
        ("cocycle-check", "model = bernoulli\np = 0.5, 0.5\ntolerance = 0.1\n", "tolerance"),
        ("smb-run", "model = markov\ntransition_0 = 0.9, 0.1\ntransition_1 = 0.2, 0.8\n"
                    "p = 0.5, 0.5\n", "p"),
        ("smb-run", "model = markov\ntransition_0 = 0.9, 0.1\ntransition_1 = 0.2, 0.8\n"
                    "base_p = 1\n", "base_p"),
        ("cover-demo", "kind = greedy\nshape_1 = 2\ncenters_1 = 0, 2, 4\nk_set = 0, 1\n",
         "k_set"),
        ("cover-demo", "kind = greedy\nshape_1 = 2\ncenters_1 = 0, 2, 4\nalpha = 0.5\n",
         "alpha"),
        # `workers` is read by smb-run only, `samples` by the Monte Carlo method only
        ("folner-check", "group = zd:2\nworkers = 7\n", "workers"),
        ("cocycle-check", "model = bernoulli\np = 0.5, 0.5\nworkers = 7\n", "workers"),
        ("cond-entropy", "model = bernoulli\np = 0.5, 0.5\nworkers = 7\n", "workers"),
        ("cover-demo", "kind = greedy\nshape_1 = 2\ncenters_1 = 0, 2, 4\nworkers = 7\n",
         "workers"),
        ("cond-entropy", "model = bernoulli\np = 0.5, 0.5\nmethod = exact\nsamples = 9\n",
         "samples"),
    ], ids=["markov-row-outside", "fiber-row-outside", "fiber-row-twice", "centers-unpaired",
            "greedy-random-shape", "random-greedy-shape", "shape-unpaired", "folner-tolerance",
            "cocycle-tolerance", "markov-p", "markov-base_p", "greedy-k_set", "greedy-alpha",
            "folner-workers", "cocycle-workers", "cond-workers", "cover-workers",
            "exact-samples"])
    def test_stray_and_misnumbered_keys_are_config_errors(self, tmp_path, capsys, subcommand,
                                                          text, key):
        head = {"smb-run": "seed = 1\nn_max = 2\n", "cond-entropy": "seed = 1\nn_max = 2\n",
                "folner-check": "seed = 1\nn_max = 3\n",
                "cocycle-check": "seed = 1\nchecks = 2\n",
                "cover-demo": "seed = 1\nambient_n = 6\ndelta = 0.25\nepsilon = 0.5\n"}
        text = head[subcommand] + text
        rc, out = run(tmp_path, subcommand, text)
        line = [k.split(" = ")[0] for k in text.splitlines()].index(key) + 1
        assert rc == EXIT_CONFIG
        assert f"config error: key '{key}' (line {line}): " in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("subcommand, extra", [
        ("smb-run", "n_max = 3\ntrajectories = 3\n"),
        ("cond-entropy", "n_max = 3\nmethod = monte-carlo\nsamples = 5\n"),
        ("cocycle-check", "checks = 20\n"),
    ])
    def test_markov_with_a_transient_state_runs(self, tmp_path, capsys, subcommand, extra):
        text = "seed = 1\nmodel = markov\ntransition_0 = 1, 0\ntransition_1 = 0.2, 0.8\n"
        rc, out = run(tmp_path, subcommand, text + extra)
        assert rc == EXIT_OK, capsys.readouterr().err
        assert read_summary(out)["assertion"] == "pass"

    def test_runner_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("boom")

        monkeypatch.setitem(cli_mod._RUNNERS, "smb-run", broken)
        rc, out = run(tmp_path, "smb-run", SMB_MIN)
        assert rc == EXIT_INTERNAL == 5
        assert capsys.readouterr().err == "internal error: boom\n"
        assert not Path(out).exists()
        assert not Path(out + ".summary").exists()

    def test_runner_exception_without_text_names_its_type(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError()

        monkeypatch.setitem(cli_mod._RUNNERS, "smb-run", exhausted)
        rc, out = run(tmp_path, "smb-run", SMB_MIN)
        assert rc == EXIT_INTERNAL == 5
        assert capsys.readouterr().err == "internal error: MemoryError\n"
        assert not Path(out).exists()

    def test_seed_override_range(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ok.cfg",
                        "seed = 1\nmodel = bernoulli\np = 0.5, 0.5\nn_max = 2\n")
        rc = main(["smb-run", "--config", cfg, "--seed", "-1"])
        assert rc == EXIT_CONFIG
        capsys.readouterr()

    # An override is read by its key's schema kind and checked by the same
    # cross-key rules as the file's value; it has no line, so it cites line 0.
    @pytest.mark.parametrize("flag, value, reason", [
        ("--seed", str(2 ** 64), "seed must be an unsigned 64-bit integer"),
        ("--seed", "five", "invalid literal"),
        ("--workers", "0", "must be >= 1"),
        ("--workers", "65", "must be in 1..64"),
    ])
    def test_overrides_follow_the_config_rules(self, tmp_path, capsys, flag, value, reason):
        rc, out = run(tmp_path, "smb-run", SMB_MIN + "workers = 2\n", flag, value)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{flag[2:]}' (line 0): ")
        assert reason in err
        assert not Path(out).exists()

    # A flag joins the file before any rule runs: it may supply a key the file
    # lacks, or replace a value the cross-key rules would reject.
    @pytest.mark.parametrize("text, flags", [
        ("model = bernoulli\np = 0.5, 0.5\nn_max = 2\n", ("--seed", "5")),
        (SMB_MIN + "workers = 3\n", ("--workers", "2")),
    ], ids=["seed-from-flag", "workers-replaced"])
    def test_flags_join_the_file_before_the_rules(self, tmp_path, capsys, text, flags):
        rc, out = run(tmp_path, "smb-run", text, *flags)
        assert rc == EXIT_OK, capsys.readouterr().err
        assert read_summary(out)["seed"] == "5"

    def test_a_bad_file_line_stays_an_issue_under_its_flag(self, tmp_path, capsys):
        for value in ("many", "100"):  # not an integer, over the cap
            rc, out = run(tmp_path, "smb-run", SMB_MIN + f"workers = {value}\n", "--workers", "2")
            assert rc == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("config error: key 'workers' (line 7): ")
            assert not Path(out).exists()

    # cover-demo holds its ambient window, and its blocks in total, to the
    # 2^20 points of a window; uncapped, an ambient_n of 10^8 exhausts memory.
    @pytest.mark.parametrize("shape, key, line, reason", [
        ("ambient_n = 1048577\nshape_1 = 2\ncenters_1 = 0, 2, 4\n", "ambient_n", 5,
         "ambient window exceeds 2^20 points"),
        # 1024 x 512 points, then 1024 x 513: the running total passes 2^20 at shape_2
        ("ambient_n = 2048\nshape_1 = 1024\ncenters_1 = " + ", ".join(map(str, range(512)))
         + "\nshape_2 = 1024\ncenters_2 = " + ", ".join(map(str, range(513))) + "\n",
         "shape_2", 8, "cover blocks exceed 2^20 points"),
    ], ids=["ambient", "blocks"])
    def test_cover_demo_size_caps(self, tmp_path, capsys, shape, key, line, reason):
        text = "seed = 1\nkind = greedy\ndelta = 0.25\nepsilon = 0.5\n" + shape
        rc, out = run(tmp_path, "cover-demo", text)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: key '{key}' (line {line}): {reason}\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("subcommand", ["cond-entropy", "folner-check", "cocycle-check",
                                            "cover-demo"])
    def test_workers_flag_is_smb_run_only(self, tmp_path, capsys, subcommand):
        cfg = write_cfg(tmp_path, "any.cfg", "seed = 1\n")
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--config", cfg, "--workers", "9"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --workers 9" in capsys.readouterr().err

    def test_status_line_on_stdout(self, tmp_path, capsys):
        text = "seed = 5\nmodel = bernoulli\np = 0.7, 0.3\nn_max = 3\nmethod = exact\n"
        rc, out = run(tmp_path, "cond-entropy", text)
        assert rc == EXIT_OK
        assert capsys.readouterr().out == f"cond-entropy: ok ({out})\n"


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

# sha256 of each shipped config's CSV and of its .summary without the
# echoed `csv:` path line.  Recorded when site and keep draws moved to
# generator version 2 (the `rng: 2` summary line); a change that alters
# samples or figures on purpose updates these digests and says so.
SHIPPED_DIGESTS = {
    "cocycle_heisenberg.cfg": (
        "26a5c80268fe623119660137b683ffa8ee0134bbcf46b5aba4cc3c986a0aff8b",
        "513d6228ce33529f5e120c8399476d38f1746fa609fea3a51a7e1467b076b1c6"),
    "cond_entropy_markov.cfg": (
        "ab1e6c48bd8f578240c13b3217928157ca306d0fc2c41b94152c281ad28e731d",
        "bbd2307c0a2ad3cb427c41c8697c4368a8ba9d0fa4c031bbaea34a85b34114ed"),
    "cover_greedy.cfg": (
        "17389cd1e690bdaef425bdfb7c89d95908b31e82f6e3d2e62e02409d073b3305",
        "5642a72e827598a15478a633211794e57824234f776fa9d3e2e2e83cbb273628"),
    "cover_random.cfg": (
        "1cbe17172402828e6749e8f34bc9a611ff2074962223d15aed26a2ea0e79b569",
        "46aa98d19cbf16604ed29e39577c349796034b8401c47c9f7cab5c8570022738"),
    "folner_heisenberg.cfg": (
        "26058472836dd5650c6c4a02841257b7c1494698961df4031626636c7e5516ac",
        "cf533705977877f1ff6ff253d6cdcfa58364c1b31a2b26613016bb243e1931a9"),
    "folner_z3.cfg": (
        "5d4fa3b5cc2fb808879800a84504dfaa1b174b22071b58afffc7f9f96e743c41",
        "42fbe314388c87c252ebc32d0e3945e1a1e7a7d0fcd969642d0ae30434bc69bd"),
    "smb_bernoulli_z2.cfg": (
        "a8c04930c1ed8d0f40292bb2b3f2f715aeecfd1ca8aa30742a8e33f1c20be784",
        "d709160b603667b99ae1412b4d3ccc5dd767ce8ccd85d67d9d545b97e4a88f28"),
    "smb_markov.cfg": (
        "9e2c30811c2610c91e576d9e423d84932a62ca4e9112bb7918180393e0235eec",
        "639a9efd600960d88718b230b1c3c166eb9c2d989782559fc1bff1f6ef383eed"),
    "smb_mixed_z2.cfg": (
        "a0a1a76d8b21b46e2d7b44b70a4e7569c4c34ee610f40970f752656f5b8e1b46",
        "26bd38d9d28a273208081f3815959684160716610d8364f9b6537cb642ceb550"),
}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configuration_names_every_key():
    """Each schema key is in backticks in README's Configuration section; an
    indexed family counts by its `name_` prefix, as in `shape_1` or `shape_i_j`."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = {key if isinstance(key, str) else key[0] + "_"
             for schema in config_mod._SCHEMAS.values() for key in schema}
    # a plain key ends its word: `p` and `p = ...` name p, `p_0` does not
    tails = {name: "" if name.endswith("_") else r"(?!\w)" for name in names}
    missing = [name for name in sorted(names)
               if not re.search("`" + re.escape(name) + tails[name] + "[^`\n]*`", section)]
    assert missing == []


def test_configs_are_shipped():
    assert len(SHIPPED_CONFIGS) >= 9
    assert sorted(SHIPPED_DIGESTS) == [p.name for p in SHIPPED_CONFIGS]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs_and_passes(path, tmp_path, capsys):
    subcommand = re.search(r"^subcommand\s*=\s*(\S+)", path.read_text(), re.M).group(1)
    out = str(tmp_path / (path.stem + ".csv"))
    rc = main([subcommand, "--config", str(path), "--out", out])
    assert rc == EXIT_OK, capsys.readouterr().err
    assert read_summary(out)["assertion"] == "pass"
    with open(out, "rb") as fh:
        csv_digest = hashlib.sha256(fh.read()).hexdigest()
    with open(out + ".summary", "rb") as fh:
        summary = b"".join(line for line in fh if not line.startswith(b"csv: "))
    assert (csv_digest, hashlib.sha256(summary).hexdigest()) == SHIPPED_DIGESTS[path.name]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_with_byte_order_mark_parses_the_same(path):
    raw = path.read_bytes()
    subcommand = re.search(rb"^subcommand\s*=\s*(\S+)", raw, re.M).group(1).decode()
    plain = parse_config(decode_config(raw), subcommand)
    assert parse_config(decode_config(b"\xef\xbb\xbf" + raw), subcommand) == plain


# Small valid configs per subcommand; the fuzz test overrides, drops and
# shuffles their keys and mixes in arbitrary lines.
FUZZ_BASES = {
    "smb-run": [
        {"seed": "1", "model": "bernoulli", "p": "0.5, 0.5", "n_max": "3",
         "trajectories": "3"},
        {"seed": "1", "model": "random-alphabet", "group": "zd:2", "base_p": "0.5, 0.5",
         "fiber_p_0": "0.5, 0.5", "fiber_p_1": "0.9, 0.1", "n_max": "2", "trajectories": "2"},
    ],
    "cond-entropy": [
        {"seed": "1", "model": "markov", "transition_0": "0.9, 0.1",
         "transition_1": "0.2, 0.8", "n_max": "3"},
        {"seed": "1", "model": "bernoulli", "p": "0.5, 0.5", "n_max": "2",
         "method": "monte-carlo", "samples": "3"},
    ],
    "folner-check": [{"seed": "1", "group": "zd:2", "n_max": "4"}],
    "cocycle-check": [{"seed": "1", "model": "bernoulli", "p": "0.5, 0.5",
                       "checks": "5", "window_n": "2", "radius": "2"}],
    "cover-demo": [
        {"seed": "1", "kind": "greedy", "ambient_n": "6", "delta": "0.25",
         "epsilon": "0.5", "shape_1": "2", "centers_1": "0, 2, 4"},
        {"seed": "1", "kind": "random", "ambient_n": "6", "delta": "0.25",
         "epsilon": "0.5", "alpha": "0.5", "c": "6", "k_set": "0, 1", "samples": "100",
         "shape_1_1": "2", "centers_1_1": "0, 2, 4"},
    ],
}

# Instances of the indexed key families of the schemas.
FUZZ_INDEXED = ("fiber_p_0", "fiber_p_1", "fiber_p_2", "transition_0", "transition_1",
                "transition_2", "shape_1", "shape_2", "shape_1_1", "shape_1_2", "shape_2_1",
                "centers_1", "centers_2", "centers_1_1", "centers_1_2", "centers_2_1")

FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)

FUZZ_DISTS = ["0.5, 0.5", "1", "1, 0", "0, 1", "0.25, 0.75", "0.9, 0.1", "1/3, 1/3, 1/3"]


def fuzz_value(kind):
    """Mostly a plausible value of the key's kind (ints <= 6), sometimes junk."""
    if kind.startswith("choice:"):
        plausible = st.sampled_from(kind.split(":", 1)[1].split("|"))
    elif kind == "group":
        plausible = st.sampled_from(["zd:1", "zd:2", "zd:3", "heisenberg"])
    elif kind == "dist":
        plausible = st.sampled_from(FUZZ_DISTS)
    elif kind == "intlist":
        plausible = st.lists(st.integers(-1, 6), min_size=1, max_size=4).map(
            lambda xs: ", ".join(map(str, xs)))
    elif kind in ("unit", "number"):
        plausible = st.sampled_from(["0.1", "0.25", "0.5", "0.9", "1", "3", "-1"])
    else:
        plausible = st.integers(-1, 6).map(str)
    return st.one_of(plausible, plausible, plausible, FUZZ_TEXT)


def fuzz_keys(subcommand):
    schema = config_mod._SCHEMAS[subcommand]
    plain = [k for k in schema if isinstance(k, str) and k != "out"]
    return plain + [k for k in FUZZ_INDEXED if config_mod._lookup(schema, k)]


@st.composite
def fuzz_configs(draw):
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    schema = config_mod._SCHEMAS[subcommand]
    values = dict(draw(st.sampled_from(FUZZ_BASES[subcommand])))
    for key in draw(st.lists(st.sampled_from(fuzz_keys(subcommand)), max_size=5)):
        values[key] = draw(fuzz_value(config_mod._lookup(schema, key).kind))
    dropped = draw(st.sets(st.sampled_from(sorted(values)), max_size=2))
    kept = [f"{k} = {v}" for k, v in values.items() if k not in dropped]
    noise = draw(st.lists(FUZZ_TEXT, max_size=2)) if draw(st.integers(0, 3)) == 3 else []
    return subcommand, "\n".join(draw(st.permutations(kept + noise))) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_configs())
def test_fuzzed_configs_exit_honestly(case):
    subcommand, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main([subcommand, "--config", str(cfg), "--out", str(Path(tmp) / "fuzz.csv")])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_ASSERTION)
