"""Golden CLI output: a digest of what ``plan``, ``sweep`` and ``sensitivity``
print with ``--format json --no-meta``.

``tests/golden/cli_digests.json`` holds, per case, the sha256 of the
command's stdout and its exit code, on the motivating network with both
catalogs, ``purdue_fixture`` at 21, 40 and 80 hosts (``plan`` also at 400),
``random_fixture(0..39)`` and ``dense_fixture(6..20)``.
A change that is meant to keep the output byte-identical must keep every
digest. The file is written by running this module as a script:

    PYTHONPATH=src python tests/test_cli_digests.py
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from chainplan import cli
from chainplan.synth import dense_fixture, purdue_fixture, random_fixture

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
COMMANDS = {"plan": ("--k", "13"), "sweep": (), "sensitivity": ()}
SOURCES = (["motivating", "motivating_bpf"] + [f"purdue{hosts}" for hosts in (21, 40, 80)]
           + [f"random{seed}" for seed in range(40)]
           + [f"dense{hosts}" for hosts in range(6, 21)])
CASES = [f"{command} {source}" for source in SOURCES for command in COMMANDS] \
    + ["plan purdue400"]


def _inputs(source: str, workdir: Path) -> tuple[str, str]:
    """The network and catalog files of ``source``, written to ``workdir``
    where a fixture generator makes them."""
    if source.startswith("motivating"):
        catalog = "motivating_catalog_bpf.json" if source.endswith("bpf") \
            else "motivating_catalog.json"
        return str(FIXTURES / "motivating_network.json"), str(FIXTURES / catalog)
    kind = source.rstrip("0123456789")
    size = int(source[len(kind):])
    network, catalog = {"purdue": lambda: purdue_fixture(hosts=size),
                        "random": lambda: random_fixture(size),
                        "dense": lambda: dense_fixture(size)}[kind]()
    paths = workdir / f"{source}_network.json", workdir / f"{source}_catalog.json"
    for path, data in zip(paths, (network, catalog)):
        if not path.exists():
            path.write_text(json.dumps(data), encoding="utf-8")
    return str(paths[0]), str(paths[1])


def digest(case: str, workdir: Path) -> dict:
    """sha256 of the case's stdout, and its exit code."""
    command, source = case.split(" ")
    network, catalog = _inputs(source, workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--network", network, "--catalog", catalog,
                         *COMMANDS[command], "--format", "json", "--no-meta"])
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "exit": code}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli_digests")


@pytest.mark.parametrize("case", CASES)
def test_output_is_unchanged(golden, workdir, case):
    assert digest(case, workdir) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: digest(case, Path(tmp)) for case in CASES}
    text = json.dumps(digests, indent=1, sort_keys=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(digests)} cases)", file=sys.stderr)
