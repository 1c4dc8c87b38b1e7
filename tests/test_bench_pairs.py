"""scripts/bench_pairs.py leaves no perfbench run behind when it is stopped,
and runs the change side from a fresh export of the working tree.

A stub checkout's perfbench/run.py starts one sleeping child and sleeps for
less time than the child; an interrupted `run_once` must leave neither
process alive.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")

STUB = """\
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
with open("pids.tmp", "w") as out:
    out.write(f"{os.getpid()} {child.pid}")
os.rename("pids.tmp", "pids")
time.sleep(60)
"""


def _stub_checkout(tmp_path: Path) -> Path:
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB)
    return tmp_path


def _wait_for_pids(checkout: Path) -> list[int]:
    deadline = time.monotonic() + 20
    while not (checkout / "pids").exists():
        assert time.monotonic() < deadline, "the stub run never started"
        time.sleep(0.02)
    return [int(p) for p in (checkout / "pids").read_text().split()]


def _alive(pid: int) -> bool:
    """Whether the process runs: it exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _none_alive(pids: list[int]) -> bool:
    deadline = time.monotonic() + 10
    while any(map(_alive, pids)):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


SERIES = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench_pairs
bench_pairs.stop_on_signals()
try:
    bench_pairs.run_once(Path(sys.argv[2]), "enum-corpus", 1, 1.0)
except bench_pairs.Interrupted as exc:
    sys.exit(f"stopped by {exc}")
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT],
                         ids=lambda s: s.name)
def test_a_signal_to_the_series_kills_the_run_under_way(signum, tmp_path):
    checkout = _stub_checkout(tmp_path)
    series = subprocess.Popen([sys.executable, "-c", SERIES, str(SCRIPTS), str(checkout)],
                              stderr=subprocess.PIPE, text=True)
    pids: list[int] = []
    try:
        pids = _wait_for_pids(checkout)
        series.send_signal(signum)
        _, stderr = series.communicate(timeout=20)
        assert series.returncode == 1 and f"stopped by {signum.name}" in stderr
        assert _none_alive(pids)
    finally:
        series.kill()
        series.wait()
        _kill(pids)


def test_an_exception_in_run_once_kills_the_run_under_way(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    checkout = _stub_checkout(tmp_path)
    pids: list[int] = []

    def started(*args, **kwargs):
        pids.extend(_wait_for_pids(checkout))
        raise RuntimeError("interrupted")

    monkeypatch.setattr(subprocess.Popen, "communicate", started)
    try:
        with pytest.raises(RuntimeError, match="interrupted"):
            bench_pairs.run_once(checkout, "enum-corpus", 1, 1.0)
        assert len(pids) == 2 and _none_alive(pids)
    finally:
        _kill(pids)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                           "-c", "user.email=t@example.invalid", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def test_the_change_side_is_a_fresh_export_of_the_working_tree(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "edited.py").write_text("VALUE = 1\n")
    (repo / "src" / "deleted.py").write_text("")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "src" / "edited.py").write_text("VALUE = 2\n")
    (repo / "src" / "deleted.py").unlink()
    (repo / "src" / "untracked.py").write_text("NEW = 3\n")
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "edited.cpython.pyc").write_bytes(b"stale")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    scratch, into = tmp_path / "scratch", tmp_path / "change"
    scratch.mkdir()
    tree = bench_pairs.working_tree(scratch)
    bench_pairs.export(tree, into)
    assert sorted(p.relative_to(into).as_posix() for p in into.rglob("*")) == [
        ".gitignore", "src", "src/edited.py", "src/untracked.py"]
    assert (into / "src" / "edited.py").read_text() == "VALUE = 2\n"
    # the real index still holds the committed files
    assert _git(repo, "diff", "--cached", "--name-only") == ""
    assert _git(repo, "rev-parse", f"{tree}:src") != _git(repo, "rev-parse", "HEAD:src")
