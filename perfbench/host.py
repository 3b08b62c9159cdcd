"""Run hygiene: machine fingerprint, memory, CPU time and leak checks."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import re
import resource
from pathlib import Path

SHM_ROOT = Path("/dev/shm")
SHM_PREFIX = "repro_shm_"


def fingerprint(root: Path) -> dict[str, object]:
    """What produced a result: cores, CPU, versions and source revision."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": _git_revision(root),
        "src_sha256": _source_digest(root / "src"),
    }


def _git_revision(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; ``none`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src``: names the code under
    test when the checkout is not a git clone."""
    sha = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def observability_enabled() -> list[str]:
    """Names of the program's observability singletons that are on."""
    from repro.monitor import AUDIT
    from repro.obs import METRICS
    from repro.profile import PROFILER, RECORDER
    from repro.trace import TRACER

    singletons = {
        "METRICS": METRICS,
        "TRACER": TRACER,
        "AUDIT": AUDIT,
        "PROFILER": PROFILER,
        "RECORDER": RECORDER,
    }
    return [name for name, s in singletons.items() if s.enabled]


def resident_mb() -> float:
    """Resident memory of this process plus its live worker processes.

    Sums the proportional set size, so pages a forked worker still
    shares with the parent count once.  Falls back to this process's
    peak RSS where ``smaps_rollup`` is missing.
    """
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            if pid == os.getpid():
                total_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def cpu_seconds() -> tuple[float, float]:
    """``(this process, reaped children)`` user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def shm_segments() -> set[str]:
    """The program's shared-memory segments currently in ``/dev/shm``."""
    if not SHM_ROOT.is_dir():
        return set()
    return {p.name for p in SHM_ROOT.iterdir() if p.name.startswith(SHM_PREFIX)}


#: Every segment :func:`note_segments` saw this process map.
_SEEN_SEGMENTS: set[str] = set()


def note_segments() -> None:
    """Remember the program's shared-memory segments this process maps
    now; call it while the engine is open."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return
    _SEEN_SEGMENTS.update(re.findall(rf"{SHM_ROOT}/({SHM_PREFIX}\w+)", maps))


def leaked_segments() -> list[str]:
    """Segments seen by :func:`note_segments` that still exist.

    Only this process's segments count, so a run beside another one that
    holds segments of its own does not fail.
    """
    return sorted(_SEEN_SEGMENTS & shm_segments())


def stop_helpers() -> None:
    """Wait for every worker process and stop the stdlib's resource tracker.

    Creating a shared-memory segment starts a resource-tracker process
    that would otherwise outlive the run by a moment; stopping it here
    means the run ends with no process of its own left.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
