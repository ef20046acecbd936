"""Backend registry: one IR, N code generators behind a common interface.

``compile_sdfg`` (and therefore ``repro.compile(prog, backend=...)``) routes
every compilation through a named :class:`Backend`.  A backend owns the whole
"SDFG in, callable out" step: how source is emitted, how it is turned into an
executable and how the result is wrapped.  Two backends ship built in:

``"numpy"`` (the default)
    The original pure-Python emitter (:mod:`repro.codegen.emitter`):
    vectorisable maps become NumPy slice statements, everything else becomes
    interpreted Python loops.  Always available.

``"cython"`` (alias ``"native"``)
    The native backend (:mod:`repro.codegen.cython_backend`): sequential
    loop nests, scalar tasklets and small library calls are lowered to C,
    compiled with the system C toolchain and called through ``ctypes``.
    Declines programs outside its supported subset by raising
    :class:`~repro.util.errors.UnsupportedFeatureError`, which the pipeline's
    codegen stage turns into a clean per-program fallback to ``"numpy"``.

Backends are looked up by name (:func:`get_backend`) and registered with
:func:`register_backend`; third-party backends only need to subclass
:class:`Backend`.  The backend *name* participates in compilation-cache
fingerprints (see ``repro/pipeline/stages.py``), so the same program compiled
under two backends occupies two distinct cache entries.
"""

from __future__ import annotations

from typing import Optional

from repro.util.errors import CodegenError

#: Backend used when no explicit name is given (``backend=None``).
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, "Backend"] = {}
_BUILTINS_LOADED = False


class Backend:
    """One code-generation target.

    Subclasses implement :meth:`compile` — SDFG to an executable
    :class:`~repro.codegen.CompiledSDFG` — and may override
    :meth:`is_available` / :meth:`unavailable_reason` when the backend
    depends on external tooling (a C compiler, a GPU, ...).
    """

    #: Registry name; also recorded in reports and cache fingerprints.
    name: str = "backend"

    def is_available(self) -> bool:
        """Whether this backend can compile on the current machine."""
        return self.unavailable_reason() is None

    def unavailable_reason(self) -> Optional[str]:
        """Human-readable reason the backend cannot run (``None`` = it can)."""
        return None

    def compile(self, sdfg, func_name: str, result_names: list[str]):
        """Compile ``sdfg`` into a :class:`~repro.codegen.CompiledSDFG`.

        May raise :class:`~repro.util.errors.UnsupportedFeatureError` to
        decline the program (the pipeline then falls back to the default
        backend) or :class:`~repro.util.errors.CodegenError` for genuine
        failures.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class NumpyBackend(Backend):
    """The default interpreted backend: emitted Python/NumPy source,
    ``exec``-uted into a callable (always available)."""

    name = "numpy"

    def compile(self, sdfg, func_name: str, result_names: list[str]):
        from repro.codegen.compiled import CompiledSDFG
        from repro.codegen.emitter import generate_source
        from repro.codegen.runtime import build_runtime_namespace, load_driver

        source = generate_source(sdfg, func_name, result_names)
        func = load_driver(source, func_name, build_runtime_namespace(), sdfg.name)
        return CompiledSDFG(sdfg, source, func, result_names)


def register_backend(name: str, backend: Backend) -> Backend:
    """Register ``backend`` under ``name`` (later registrations win, so tests
    can shadow a built-in).  Returns the backend for chaining."""
    _REGISTRY[name] = backend
    return backend


def _ensure_builtins() -> None:
    """Populate the registry with the built-in backends on first use.

    The native backend registers itself on import; importing it lazily keeps
    ``repro.codegen`` importable even if the native package ever fails to
    load (the numpy backend must always work).
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    if "numpy" not in _REGISTRY:
        register_backend("numpy", NumpyBackend())
    try:
        import repro.codegen.cython_backend  # noqa: F401 - registers itself
    except Exception:  # pragma: no cover - native backend must never break numpy
        pass


def get_backend(name: Optional[str] = None) -> Backend:
    """Look up a backend by name (``None`` = the default numpy backend)."""
    _ensure_builtins()
    resolved = name or DEFAULT_BACKEND
    backend = _REGISTRY.get(resolved)
    if backend is None:
        raise CodegenError(
            f"Unknown backend {resolved!r}; registered: {sorted(_REGISTRY)}"
        )
    return backend


def registered_backends() -> list[str]:
    """Names of every registered backend (available or not)."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Names of registered backends that can compile on this machine."""
    _ensure_builtins()
    return sorted(
        name for name, backend in _REGISTRY.items() if backend.is_available()
    )
