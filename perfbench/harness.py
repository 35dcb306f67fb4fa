"""Shared plumbing of the benchmark: program lookup, golden outputs,
statistics, set-up probes, resource use and outside-in layer timing.

The benchmark measures the program in ``src/`` of the checkout it sits
in.  Nothing here is imported by the program; layer timing wraps the
program's public functions from the outside (see :class:`LayerClock`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, ready files and temp files; removed per run.
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN_PATH = os.path.join(HERE, "golden.json")


class BenchError(RuntimeError):
    """A condition under which the benchmark must not print a result."""


def require_program() -> None:
    """Put ``src/`` on the path, or fail loudly when it is missing.

    numpy (the ``fast`` extra) is required: ``cache_replay`` measures
    the vectorized backend, and the bias accounting of every workload
    takes its numpy path when numpy is present, so a run without it
    would measure a different program.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise BenchError(
            "numpy is missing: install the 'fast' extra "
            "(pip install 'repro-penelope[fast]'); cache_replay's "
            "vectorized points need it") from None


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's program, temp
    files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env["TMPDIR"] = WORK
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """``(percentile, value, n)``: the highest listed percentile that
    still has at least ten samples beyond it (nearest-rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            chosen = pct
    rank = max(1, math.ceil(chosen / 100.0 * n))
    return chosen, ordered[rank - 1], n


def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# Golden simulated outputs
# ----------------------------------------------------------------------
def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def golden_key(study: str, params: Mapping[str, Any]) -> str:
    """Identity of a point: study + bound params *minus* ``backend``.

    Backends are bit-identical by contract, so a reference and a
    vectorized run of the same params share one golden entry, and the
    key survives a re-key of ``backend`` out of the point identity.
    """
    from repro.experiments import get_study

    bound = get_study(study).bind(params)
    bound.pop("backend", None)
    blob = _canonical({"study": study, "params": bound})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def metrics_digest(metrics: Mapping[str, Any]) -> str:
    """Digest of a point's flattened metrics (exact float reprs)."""
    return hashlib.sha256(_canonical(dict(metrics)).encode("utf-8")
                          ).hexdigest()[:16]


class Golden:
    """The committed digests, and a running count of mismatches."""

    def __init__(self) -> None:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            self.digests: Dict[str, str] = json.load(handle)["digests"]
        self.mismatches: List[str] = []

    def check(self, study: str, params: Mapping[str, Any],
              metrics: Mapping[str, Any]) -> str:
        """Compare one point with its golden digest; returns the digest
        (so callers can compare backends with each other too)."""
        key = golden_key(study, params)
        digest = metrics_digest(metrics)
        expected = self.digests.get(key)
        if expected != digest:
            self.mismatches.append(
                f"{study} {key}: got {digest}, golden {expected}")
        return digest


# ----------------------------------------------------------------------
# Set-up probes, resource use, environment
# ----------------------------------------------------------------------
#: What a fresh process does before its first point: import the facade,
#: the experiment engine (which fills the study registry), the client
#: and the kernel backends, then resolve every study.
IMPORT_PROBE = (
    "import repro.api, repro.client, repro.experiments as e\n"
    "from repro.uarch.backends import get_backend\n"
    "get_backend('vectorized')\n"
    "[e.get_study(n) for n in e.study_names()]\n"
)


def import_setup_s() -> float:
    """Wall seconds for a fresh interpreter to become ready."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                   check=True, timeout=120)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds :func:`calibrate` takes on the uncontended 2-vCPU shared host
#: the benchmark was tuned on; host times are scaled to it.
CAL_REF_S = 0.011


def calibrate() -> float:
    """Seconds for a fixed dict-and-list kernel that shares no code with
    the program, so it measures only how fast the host runs Python now."""
    rng = random.Random(1)
    counts: Dict[int, int] = {}
    order: List[int] = []
    start = time.perf_counter()
    for __ in range(20_000):
        key = rng.randrange(4096)
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
            order.append(key)
            if len(order) > 512:
                counts.pop(order.pop(0), None)
    return time.perf_counter() - start


class HostSpeed:
    """Scales host times to the reference host speed.

    Other tenants of a shared host slow everything down in bursts from
    seconds to minutes, by up to 2x, which no amount of repetition
    inside one run averages out.  The calibration kernel slows down
    with them, so a time measured between two calibrations is scaled
    by ``CAL_REF_S / mean(calibration before, calibration after)``.
    Usage: :meth:`mark` before the measured work (or rely on the
    previous :meth:`scale`), then ``scale(seconds)`` after it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.mark()

    def mark(self) -> None:
        self.samples.append(calibrate())

    def scale(self, seconds: float) -> float:
        before = self.samples[-1]
        self.mark()
        return seconds * CAL_REF_S / ((before + self.samples[-1]) / 2)

    def describe(self) -> str:
        return (f"host speed: calibration median "
                f"{median(self.samples) * 1e3:.2f} ms over "
                f"{len(self.samples)} samples, reference "
                f"{CAL_REF_S * 1e3:.2f} ms; end-to-end times are scaled "
                f"to the reference")


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, store: str) -> None:
        self.ready_file = os.path.join(WORK, f"ready-{os.getpid()}.json")
        if os.path.exists(self.ready_file):
            os.remove(self.ready_file)
        # A file, not a pipe: the server and its fabric workers must never
        # block on a full pipe nobody reads.
        self.log = open(os.path.join(WORK, "serve.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store", store, "--ready-file", self.ready_file,
             "--max-jobs", "1", "--quiet"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=self.log)
        deadline = time.monotonic() + 60
        while not os.path.exists(self.ready_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("repro serve did not become ready: "
                                 + self._log_text())
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - start
        with open(self.ready_file, encoding="utf-8") as handle:
            self.url = json.load(handle)["url"]

    def _log_text(self) -> str:
        with open(self.log.name, "rb") as handle:
            return handle.read().decode("utf-8", "replace")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"repro serve exited {self.proc.returncode}: "
                             + self._log_text())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment(seed: int) -> Dict[str, Any]:
    """Fingerprint recorded with every result."""
    import numpy

    git: Dict[str, Any] = {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT,
                capture_output=True, text=True, timeout=10)
            git = {"revision": rev.stdout.strip(),
                   "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "git": git,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def reset_memos() -> None:
    """Cold per-process memos, so no point reuses another's synthesis."""
    from repro.experiments import registry

    for name in ("_TRACE_CACHE", "_STREAM_CACHE", "_RF_BIAS_CACHE"):
        getattr(registry, name).clear()


# ----------------------------------------------------------------------
# Outside-in layer timing
# ----------------------------------------------------------------------
class LayerClock:
    """Times calls into the program's public functions by wrapping them.

    ``wrap(owner, attr, layer)`` replaces ``owner.attr`` with a timing
    wrapper until :meth:`restore`.  ``layer`` is a name or a function of
    the call's arguments returning a name (``None``: do not time this
    call).  Time is kept per layer as self time: a call nested inside
    another timed call is subtracted from its parent.  ``units(args,
    result, before)`` counts the work a timed call did, with ``before``
    the value ``snap(args)`` returned just before the call.
    ``observe(args, result)`` sees every call, timed or not.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.units: Dict[str, float] = defaultdict(float)
        self.stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self.stack)

    def wrap(self, owner: Any, attr: str, layer: Any,
             units: Optional[Callable] = None,
             snap: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        stack = self.stack

        def timed(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            if name is None:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            before = snap(args) if snap is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
            if units is not None:
                self.units[name] += units(args, result, before)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Swap ``owner.attr`` for ``new`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_unit_us(self, name: str) -> float:
        units = self.units.get(name, 0.0)
        return self.self_s[name] / units * 1e6 if units else 0.0
