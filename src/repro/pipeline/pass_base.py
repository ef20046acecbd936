"""The ``Pass`` protocol and the per-run :class:`PassContext`.

A pass is a named SDFG-to-SDFG transformation.  Passes communicate through the
:class:`PassContext`: analysis passes stash artifacts (the AD result, the
compiled object) under ``ctx.artifacts`` and record human-readable diagnostics
with :meth:`PassContext.note`, which the :class:`~repro.pipeline.manager.PassManager`
collects into the per-pass records of the :class:`PipelineReport`.

A pipeline is a list of :class:`Pass` instances; a custom pass is a subclass
whose ``fingerprint()`` covers its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.ir import SDFG
from repro.util.errors import PipelineError


@dataclass
class PassContext:
    """Shared mutable state threaded through one pipeline run.

    Attributes
    ----------
    symbol_values:
        Compile-time bindings of configuration symbols, consumed by
        constant-branch pruning.
    strategy:
        The resolved checkpointing strategy handed to the AD stage.
    options:
        Free-form per-run options (``wrt``, ``output``, ``return_value``).
    artifacts:
        Cross-pass products: ``"backward"`` (the :class:`BackwardPassResult`)
        and ``"compiled"`` (the :class:`CompiledSDFG`).
    info:
        Scratch notes of the *currently running* pass; the manager snapshots
        this into the pass's record and clears it between passes.
    """

    symbol_values: dict[str, object] = field(default_factory=dict)
    strategy: object = None
    options: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def note(self, key: str, value: Any) -> None:
        """Record a diagnostic that ends up in this pass's report record."""
        self.info[key] = value

    def fingerprint(self) -> tuple:
        """Cache-relevant part of the context (symbol bindings and options);
        a value without a stable form raises ``TypeError``."""
        from repro.pipeline.cache import stable_repr

        return (
            tuple(sorted((k, stable_repr(v)) for k, v in self.symbol_values.items())),
            tuple(sorted((k, stable_repr(v)) for k, v in self.options.items())),
        )


class Pass:
    """Base class for pipeline stages.

    Subclasses set ``name`` and implement ``apply(sdfg, ctx)``, returning the
    (possibly new) SDFG.  Returning ``None`` means "transformed in place".
    ``fingerprint()`` must cover every constructor argument that changes the
    pass's output — it is part of the compilation-cache key.
    """

    name: str = "pass"

    def apply(self, sdfg: SDFG, ctx: PassContext) -> Optional[SDFG]:
        """Transform ``sdfg`` (in place or by returning a new one).

        The manager hands every pass a private copy of the caller's SDFG
        (copy-in), so passes may mutate freely; whatever the last pass leaves
        behind is the pipeline's result (copy-out).  Returning ``None`` means
        "transformed in place"; returning an SDFG replaces the current one.
        """
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """Stable identity of this pass configuration for the compilation
        cache.  Must cover every constructor argument that changes the pass's
        output; two passes with equal fingerprints must produce identical
        results on identical inputs, or the cache will serve stale objects."""
        return (self.name,)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def as_passes(entries: Iterable) -> tuple[Pass, ...]:
    """``entries`` as a tuple of passes; anything but a :class:`Pass`
    instance (a name, a plain function) raises ``TypeError``."""
    passes = tuple(entries)
    for entry in passes:
        if not isinstance(entry, Pass):
            raise TypeError(
                f"pipeline entries must be Pass instances, got {entry!r}; "
                "subclass repro.pipeline.Pass and give it a fingerprint()"
            )
    return passes
