"""The statistics of tools/bench_pairs.py on fixed numbers, and its parent tree."""

import shutil
import subprocess

import pytest

from tools.bench_pairs import (
    commit_of,
    gain_holds,
    merged,
    pairs_note,
    parent_tree,
    quartiles,
    regressed,
    run_pairs,
    wins,
)

PARENT = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 12.25, 14.5, 16.75: IQR 4.5


def test_quartiles_interpolate_between_the_sorted_values():
    assert quartiles(PARENT[::-1]) == (12.25, 14.5, 16.75)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_wins_count_neither_ties_nor_losses():
    change = [v - 1 for v in PARENT[:8]] + [18, 20]
    assert wins(PARENT, change, "lower") == 8
    assert wins(PARENT, change, "higher") == 1


def test_a_gain_needs_nine_in_ten_wins_and_a_gap_wider_than_the_parents_iqr():
    assert gain_holds(PARENT, [v - 5 for v in PARENT], "lower")
    # ten wins, but the medians differ by 4, inside the IQR 4.5
    assert not gain_holds(PARENT, [v - 4 for v in PARENT], "lower")
    # nine wins and one tie still hold; eight wins do not
    assert gain_holds(PARENT, [v - 5 for v in PARENT[:9]] + [19], "lower")
    assert not gain_holds(PARENT, [v - 5 for v in PARENT[:8]] + [18, 20], "lower")
    assert gain_holds(PARENT, [v + 5 for v in PARENT], "higher")
    assert not gain_holds(PARENT, [v + 5 for v in PARENT], "lower")


def test_regressed_compares_the_medians_against_the_relative_bound():
    # the bound 0.25 of the median 14.5 is 3.625
    assert regressed(PARENT, [v + 3.7 for v in PARENT], "lower", 0.25)
    assert not regressed(PARENT, [v + 3.5 for v in PARENT], "lower", 0.25)
    assert regressed(PARENT, [v - 3.7 for v in PARENT], "higher", 0.25)
    assert not regressed(PARENT, [v - 3.7 for v in PARENT], "lower", 0.25)


METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]


def test_pairs_of_several_seeds_are_keyed_by_workload_and_seed(capsys):
    calls = []

    def run(tree, workload, seed):
        calls.append((tree, workload, seed))
        wall = {"parent": 1.0, "change": 0.5}[tree] + seed / 10 + len(calls) / 1000
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": 40.0 + seed}}}

    first, runs = run_pairs(run, {"parent": "parent", "change": "change"}, ["a", "b"], [1, 2], 2, METRICS)
    assert list(runs) == ["a seed 1", "b seed 1", "a seed 2", "b seed 2"]
    # the parent runs first in odd pairs, the change first in even ones
    assert calls[:4] == [("parent", "a", 1), ("change", "a", 1), ("change", "a", 1), ("parent", "a", 1)]
    assert len(calls) == 16 and calls[-1] == ("parent", "b", 2)
    assert runs["a seed 1"]["wall_s"] == {"parent": [1.101, 1.104], "change": [0.602, 0.603]}
    assert runs["b seed 2"]["wall_s"] == {"parent": [1.213, 1.216], "change": [0.714, 0.715]}
    assert runs["b seed 2"]["peak_rss_mb"] == {"parent": [42.0, 42.0], "change": [42.0, 42.0]}
    # the first seed's first pair stands for each side
    result = merged(first["change"])
    assert result["attempted"] == 8 and result["correct"]
    assert result["metrics"]["a.wall_s"]["value"] == 0.602 and result["metrics"]["b.wall_s"]["value"] == 0.606
    assert "b seed 2, 2 pairs" in capsys.readouterr().err


def test_the_pairs_note_names_one_invocation_with_every_seed():
    note = pairs_note(["reduce_forms", "build_random"], [1, 2], 10, None, 20)
    assert "seeds 1 2, seconds 20" in note
    assert "bench_pairs.py PARENT_TREE --workload reduce_forms build_random --pairs 10 --seed 1 2:" in note
    assert "--seed 3 --seconds 5.0:" in pairs_note(["system_json"], [3], 4, 5.0, 20)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_parent_revision_is_extracted_and_recorded_by_its_hash(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("parent\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "parent")
    (repo / "a.txt").write_text("change\n")
    (repo / "b.txt").write_text("new\n")
    git("add", "a.txt", "b.txt")
    git("commit", "-q", "-m", "change")

    with parent_tree("HEAD~1", repo) as (root, commit):
        assert commit == git("rev-parse", "--short", "HEAD~1")
        assert (root / "a.txt").read_text() == "parent\n" and not (root / "b.txt").exists()
        assert not (root / ".git").exists()
    assert not root.exists()
    # a directory is taken as it is, even where its name is also a revision
    (tmp_path / "HEAD").mkdir()
    monkeypatch.chdir(tmp_path)
    with parent_tree("HEAD", repo) as (root, commit):
        assert root == (tmp_path / "HEAD").resolve() and commit == commit_of(root)
    assert root.exists()
    with pytest.raises(SystemExit, match="neither a directory nor a git revision"):
        with parent_tree("no-such-revision", repo):
            pass
