"""System C toolchain discovery, shared-object builds and artifact caching.

The native backend needs exactly one external tool: a C compiler.  This
module finds one (``$REPRO_CC``, else ``cc``/``gcc``/``clang`` on ``PATH``),
drives ``cc -shared -fPIC`` builds, and keeps finished shared objects in a
content-addressed *artifact cache* (``$REPRO_NATIVE_CACHE_DIR``, default
``~/.cache/repro/native``): the file name is a SHA-256 over the C source,
the compiler identity and the flags, so

* recompiling an unchanged program in a *new process* finds the ``.so``
  already on disk and skips the toolchain entirely (warm process starts);
* unpickled compiled objects (``CompilationCache(persist_dir=...)`` spills)
  restore their embedded ``.so`` bytes into the same cache and need **no**
  toolchain on the loading machine.

A missing or failing toolchain raises :class:`NativeToolchainError`, which
the pipeline's codegen stage treats like an unsupported program: clean
fallback to the NumPy backend, never a crash.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from typing import Optional

from repro.obs.metrics import METRICS
from repro.obs.trace import span as _span
from repro.util.errors import CodegenError

# Artifact-cache traffic, observable process-wide alongside the compilation
# cache's counters (see docs/observability.md): ``hits`` — the ``.so`` was
# already on disk; ``restored`` — rehydrated from pickled bytes without a
# toolchain; ``builds`` — the C compiler actually ran.
_OBS_ARTIFACT_HITS = METRICS.counter("native.artifacts.hits")
_OBS_ARTIFACT_BUILDS = METRICS.counter("native.artifacts.builds")
_OBS_ARTIFACT_RESTORED = METRICS.counter("native.artifacts.restored")


class NativeToolchainError(CodegenError):
    """No usable C toolchain, or the C compiler rejected generated source."""


#: Flags for shared-object builds; override with ``$REPRO_NATIVE_CFLAGS``.
DEFAULT_CFLAGS = "-O2"


def find_c_compiler() -> Optional[str]:
    """Path of the C compiler to use, or ``None`` when there is none.

    ``$REPRO_CC`` wins (even if bogus — a misconfigured override should fail
    loudly at build time, not silently pick a different compiler); otherwise
    the first of ``cc``, ``gcc``, ``clang`` on ``PATH``.
    """
    override = os.environ.get("REPRO_CC")
    if override:
        return shutil.which(override) or override
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def cflags() -> list[str]:
    return shlex.split(os.environ.get("REPRO_NATIVE_CFLAGS", DEFAULT_CFLAGS))


_DESCRIPTION_CACHE: dict[str, str] = {}


def toolchain_description() -> Optional[str]:
    """One-line identity of the active compiler (for benchmark metadata and
    artifact digests), or ``None`` without a toolchain."""
    compiler = find_c_compiler()
    if compiler is None:
        return None
    cached = _DESCRIPTION_CACHE.get(compiler)
    if cached is not None:
        return cached
    try:
        result = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        )
        line = (result.stdout or result.stderr).splitlines()[0].strip()
    except Exception:  # noqa: BLE001 - unknown compiler: identify by path
        line = compiler
    _DESCRIPTION_CACHE[compiler] = line
    return line


def artifact_cache_dir() -> str:
    """Directory holding built shared objects (created lazily)."""
    override = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "native"
    )


def source_digest(c_source: str) -> str:
    """Content address of a build: source + compiler identity + flags."""
    stamp = "\x00".join(
        [c_source, toolchain_description() or "", " ".join(cflags())]
    )
    return hashlib.sha256(stamp.encode("utf-8")).hexdigest()


def shared_object_path(digest: str) -> str:
    return os.path.join(artifact_cache_dir(), f"repro_{digest}.so")


def _atomic_write(path: str, payload: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def compile_shared_object(c_source: str, path: str) -> str:
    """Compile ``c_source`` into a shared object at ``path`` (atomic)."""
    compiler = find_c_compiler()
    if compiler is None:
        raise NativeToolchainError(
            "no C compiler found (install cc/gcc/clang or set $REPRO_CC)"
        )
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    source_path = f"{path}.c"
    _atomic_write(source_path, c_source.encode("utf-8"))
    temp_so = f"{path}.tmp.{os.getpid()}"
    command = [compiler, *cflags(), "-fPIC", "-shared", "-o", temp_so,
               source_path, "-lm"]
    with _span("codegen.native.cc", compiler=os.path.basename(compiler)):
        result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        try:
            os.unlink(temp_so)
        except OSError:
            pass
        stderr = (result.stderr or "").strip()[-2000:]
        raise NativeToolchainError(
            f"C compilation failed ({' '.join(command)}):\n{stderr}"
        )
    os.replace(temp_so, path)
    return path


def ensure_shared_object(
    c_source: str, digest: str, so_bytes: Optional[bytes] = None
) -> str:
    """Path of the built shared object for ``digest``, building (or, given
    ``so_bytes`` from a pickled artifact, restoring) it if absent."""
    path = shared_object_path(digest)
    if os.path.exists(path):
        _OBS_ARTIFACT_HITS.inc()
        return path
    if so_bytes is not None:
        _atomic_write(path, so_bytes)
        _OBS_ARTIFACT_RESTORED.inc()
        return path
    compile_shared_object(c_source, path)
    _OBS_ARTIFACT_BUILDS.inc()
    return path


def load_library(path: str) -> ctypes.CDLL:
    """dlopen a built artifact (re-raised as :class:`NativeToolchainError`
    on failure, so callers have a single error surface)."""
    try:
        return ctypes.CDLL(path)
    except OSError as exc:
        raise NativeToolchainError(f"cannot load native artifact {path}: {exc}") from exc


def make_kernel_callable(library: ctypes.CDLL, kernel) -> "KernelCallable":
    """Python callable for one :class:`~repro.codegen.cython_backend.lower.CKernel`.

    The driver passes NumPy arrays (C-contiguous, correct dtype — the
    compiled wrapper enforces this) followed by Python ints; the callable
    forwards raw data pointers and ``int64_t`` values.
    """
    function = getattr(library, kernel.name)
    n_arrays = len(kernel.array_args)
    function.restype = None
    function.argtypes = [ctypes.c_void_p] * n_arrays + [ctypes.c_int64] * len(
        kernel.int_args
    )
    return KernelCallable(function, n_arrays)


class KernelCallable:
    """Thin ctypes trampoline: arrays by data pointer, scalars as int64."""

    __slots__ = ("function", "n_arrays")

    def __init__(self, function, n_arrays: int) -> None:
        self.function = function
        self.n_arrays = n_arrays

    def __call__(self, *args):
        # ``argtypes`` converts the addresses and the ints.
        count = self.n_arrays
        self.function(
            *[array.ctypes.data for array in args[:count]],
            *[int(value) for value in args[count:]],
        )
