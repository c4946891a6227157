"""Journals written by an earlier release still resume.

``journals/`` holds four ``--resume`` journals written before the
analyses stopped pricing through a memoising model cache: a complete
and an interrupted one each for ``costs`` and ``dse``. A journal's file
name is a digest of its sweep spec, so a resume finds an old journal
only while the spec (``"models"`` entry included) keeps its exact
shape. Each test copies one journal into a fresh checkpoint directory,
resumes the command over it and asserts that stdout equals a fresh run,
that no second journal appeared, and that the old file only grew.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.taxonomy import implementable_classes
from repro.perf.journal import spec_digest
from repro.registry.architectures import all_architectures

JOURNALS = Path(__file__).resolve().parent / "journals"

#: (argv, journal file, records in the finished journal, records written before the resume)
CASES = {
    "costs-complete": (["costs"], "costs-da1458b6187f6180.jsonl", 25, 25),
    "dse-complete": (["dse"], "classes-1a67c5d3c33f1fa1.jsonl", 43, 43),
    "costs-interrupted": (["costs", "--n", "32"], "costs-df8f6f91f4fc04f2.jsonl", 25, 9),
    "dse-interrupted": (
        ["dse", "--min-flexibility", "4", "--objective", "area", "--n", "32"],
        "classes-3d613fb4c835a656.jsonl",
        43,
        12,
    ),
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _header(path):
    return json.loads(path.read_text(encoding="utf-8").splitlines()[0])


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_earlier_journal_resumes_to_identical_stdout(case, tmp_path, monkeypatch, capsys):
    argv, name, finished, written = CASES[case]
    journal = tmp_path / name
    shutil.copyfile(JOURNALS / name, journal)
    before = journal.read_bytes()
    assert len(before.splitlines()) == 1 + written
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))

    resumed = _run(capsys, [*argv, "--resume"])
    assert sorted(path.name for path in tmp_path.glob("*.jsonl")) == [name]
    after = journal.read_bytes()
    assert after.startswith(before)
    assert len(after.splitlines()) == 1 + finished
    assert resumed == _run(capsys, argv)


def test_the_spec_digests_name_the_earlier_journals():
    records = [record.name for record in all_architectures()]
    classes = [cls.serial for cls in implementable_classes() if cls.implementable]
    specs = {
        "costs-complete": ("costs", {"default_n": 16, "records": records}, ["None"] * 4),
        "costs-interrupted": ("costs", {"default_n": 32, "records": records}, ["None"] * 4),
        "dse-complete": ("classes", {"n": 16, "classes": classes}, ["None"] * 2),
        "dse-interrupted": ("classes", {"n": 32, "classes": classes}, ["None"] * 2),
    }
    for case, (sweep_name, spec, models) in specs.items():
        digest = spec_digest(sweep_name, {**spec, "models": models})
        name = CASES[case][1]
        assert _header(JOURNALS / name)["spec_sha256"] == digest
        assert name == f"{sweep_name}-{digest[:16]}.jsonl"
