"""Report bytes on a committed fixture, pinned by SHA-256.

A change that must leave every result as it was passes this test unchanged;
a failure names the report that differs.  Update a hash only for a change
meant to alter that report.

data/fixture.csv is the output of

    ktmix simulate --columns x=gaussian,u=uniform,b=bernoulli,m=mixed,y=copy:x \\
        --rows 200 --seed 11 --output fixture.csv

dyadic_cuts.json holds the dyadic splits of [0, 1) down to level 6, used with
dyadic_schema.json, which gives column u Lebesgue measure on [0, 1).
weighted_atoms_schema.json gives b a counting measure with weights 0.3 and
0.7 and m Lebesgue measure on [0, 1] plus an atom of weight 0.2 at 1.
"""

import hashlib
from pathlib import Path

import pytest

from ktmix.cli import main

DATA = Path(__file__).parent / "data"

REPORTS = {
    "codelength": (
        ["codelength", "fixture.csv"],
        "2af4460eef6fa03ac677803b7c292beb4b079c6e9d5ecd538e41f946aa4f52d8"),
    "density-x": (
        ["density", "fixture.csv", "x"],
        "e15f53cc0682cfb9c59288e52fe94445b677d4cc7893b0441e29c23efe246865"),
    "density-b": (
        ["density", "fixture.csv", "b"],
        "97577e6824b9cf6ad5351888e83ed0c2188db8fbc02e07723b32a15dc65d5968"),
    "density-m": (
        ["density", "fixture.csv", "m"],
        "5e0ad25db88626b6e86f98791661ecd102977a78d90c95d58d6d084f22c2f905"),
    "density-u": (
        ["density", "fixture.csv", "u"],
        "a4df44d8c1bedee13e35825c81e84394cf52f22928043b38655c9ab7254fb45d"),
    "indep": (
        ["indep", "fixture.csv", "x", "y"],
        "40d62a21b837f8a199e51229058a0278655bf9d18038e5aad6c911266512e83a"),
    "forest": (
        ["forest", "fixture.csv"],
        "c5b1adb99ac8c4e0b7e2f3b7c67243ebe251d87871afa56bc252a1057aa025b2"),
    "forest-levels-6-joint-8": (
        ["forest", "fixture.csv", "--levels", "6", "--joint-levels", "8"],
        "2367cf4a5eeac6598658d4d1d10086784bd8111ff9b597c39e85f43143e8b7be"),
    "codelength-dyadic-partition": (
        ["codelength", "fixture.csv", "--schema", "dyadic_schema.json",
         "--partition", "u=dyadic_cuts.json"],
        "c1cf4980fb43784521a3501ada7bfc7b291446ae6ca1affff29435afc56d8e3f"),
    "density-u-dyadic-partition": (
        ["density", "fixture.csv", "u", "--schema", "dyadic_schema.json",
         "--partition", "u=dyadic_cuts.json"],
        "b85805f92441d61bc0b44720981fe827ea1855683014779cdf523df0a31edc8e"),
    "codelength-weighted-atoms": (
        ["codelength", "fixture.csv", "--schema", "weighted_atoms_schema.json"],
        "f797fbab82f34ac8f815fbefb81317f52f29f54502f36aac338f84bea737eab1"),
    "forest-weighted-atoms": (
        ["forest", "fixture.csv", "--schema", "weighted_atoms_schema.json"],
        "08134f0979ac3333051eb76640af00f53e57116db1047dc932033e6d10c07d63"),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_bytes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)  # a report records its input path as given
    argv, digest = REPORTS[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, \
        f"the {name} report ({' '.join(argv)}) differs from its pinned bytes"


def test_fixture_is_the_seeded_simulation(tmp_path, capsys):
    path = tmp_path / "fixture.csv"
    code = main(["simulate", "--columns", "x=gaussian,u=uniform,b=bernoulli,m=mixed,y=copy:x",
                 "--rows", "200", "--seed", "11", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.read_bytes() == (DATA / "fixture.csv").read_bytes()
