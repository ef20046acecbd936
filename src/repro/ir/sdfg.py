"""The SDFG container.

An :class:`SDFG` owns the data descriptors, the size symbols and the root
control-flow region.  It also provides unique-name generation (gradients,
tapes and temporaries all get registered here), deep copies, DOT export and
JSON serialisation.
"""

from __future__ import annotations

import copy as _copy
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.ir.arrays import ArrayDesc
from repro.ir.control_flow import (
    ConditionalRegion,
    ControlFlowElement,
    ControlFlowRegion,
    LoopRegion,
)
from repro.ir.dtypes import as_dtype
from repro.ir.state import State
from repro.util import NameGenerator
from repro.util.errors import ValidationError


class SDFG:
    """Stateful-dataflow-multigraph-like program representation.

    Attributes
    ----------
    name:
        Program name (used for generated code and debugging).
    arrays:
        Mapping container name -> :class:`ArrayDesc`.
    symbols:
        Ordered mapping of scalar integer size parameters (``N``, ``TSTEPS``)
        to their dtype.  Symbols are bound to concrete values at call time.
    arg_names:
        Call-signature order of non-transient containers and symbols.
    root:
        Top-level control-flow region.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.arrays: dict[str, ArrayDesc] = {}
        self.symbols: dict[str, np.dtype] = {}
        self.arg_names: list[str] = []
        self.root = ControlFlowRegion(label=f"{name}_root")
        self._names = NameGenerator()
        self._state_counter = 0

    # -- data management ---------------------------------------------------
    def add_array(
        self,
        name: str,
        shape: Iterable = (),
        dtype="float64",
        transient: bool = False,
        zero_init: bool = False,
        find_new_name: bool = False,
    ) -> ArrayDesc:
        """Register a data container.  With ``find_new_name`` a fresh unique
        name derived from ``name`` is chosen instead of failing on collision."""
        if name in self.arrays:
            if not find_new_name:
                raise ValidationError(f"Array {name!r} already exists in SDFG {self.name!r}")
            name = self._names.fresh(name)
        else:
            self._names.reserve(name)
        desc = ArrayDesc(
            name=name,
            shape=tuple(shape),
            dtype=as_dtype(dtype),
            transient=transient,
            zero_init=zero_init,
        )
        self.arrays[name] = desc
        return desc

    def add_transient(self, name: str, shape: Iterable = (), dtype="float64",
                      zero_init: bool = False) -> ArrayDesc:
        """Register a transient (SDFG-allocated) container with a fresh name."""
        return self.add_array(
            name, shape, dtype, transient=True, zero_init=zero_init, find_new_name=True
        )

    def add_scalar(self, name: str, dtype="float64", transient: bool = False) -> ArrayDesc:
        return self.add_array(name, (), dtype, transient=transient, find_new_name=transient)

    def add_symbol(self, name: str, dtype="int64") -> str:
        if name not in self.symbols:
            self.symbols[name] = as_dtype(dtype)
            self._names.reserve(name)
        return name

    def make_name(self, prefix: str) -> str:
        """Fresh identifier that collides with no container or symbol."""
        return self._names.fresh(prefix)

    # -- structure ----------------------------------------------------------
    def add_state(self, label: str = "") -> State:
        """Append a new state to the root region."""
        self._state_counter += 1
        return self.root.add_state(label or f"state_{self._state_counter}")

    def all_states(self) -> Iterator[State]:
        return self.root.all_states()

    def all_elements(self) -> Iterator[ControlFlowElement]:
        return self.root.all_elements()

    def all_loops(self) -> Iterator[LoopRegion]:
        for element in self.all_elements():
            if isinstance(element, LoopRegion):
                yield element

    def all_conditionals(self) -> Iterator[ConditionalRegion]:
        for element in self.all_elements():
            if isinstance(element, ConditionalRegion):
                yield element

    # -- queries --------------------------------------------------------------
    @property
    def argument_arrays(self) -> list[str]:
        """Non-transient containers in signature order."""
        return [name for name in self.arg_names if name in self.arrays]

    def transients(self) -> list[str]:
        return [name for name, desc in self.arrays.items() if desc.transient]

    def free_symbols(self) -> set[str]:
        """Symbols referenced anywhere (shapes, memlets, loop bounds, branch
        conditions) that are neither loop iterators nor container names —
        the values a call must supply besides the containers."""
        result: set[str] = set()
        for desc in self.arrays.values():
            result |= desc.free_symbols()
        iterators: set[str] = set()
        for element in self.all_elements():
            if isinstance(element, LoopRegion):
                iterators.add(element.itervar)
                result |= element.start.free_symbols()
                result |= element.stop.free_symbols()
                result |= element.step.free_symbols()
            elif isinstance(element, ConditionalRegion):
                for cond, _ in element.branches:
                    if cond is not None:
                        result |= cond.free_symbols()
            elif isinstance(element, State):
                for node in element:
                    result |= node.free_symbols()
        return result - iterators - self.arrays.keys()

    # -- utilities ------------------------------------------------------------
    def copy(self) -> "SDFG":
        """Deep copy (used before destructive transformations such as AD)."""
        return _copy.deepcopy(self)

    def validate(self) -> None:
        from repro.ir.validation import validate_sdfg

        validate_sdfg(self)

    def to_dict(self) -> dict:
        from repro.ir.serialize import sdfg_to_dict

        return sdfg_to_dict(self)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON serialisation of the SDFG.

        Two structurally identical SDFGs (e.g. an SDFG and its deep copy) hash
        equally; any mutation of arrays, symbols, control flow or compute nodes
        changes the hash.  The compilation cache uses this as its key.
        """
        import hashlib
        import json

        from repro.ir.serialize import sdfg_to_dict

        payload = {
            "sdfg": sdfg_to_dict(self),
            # Not part of the serialised form but it changes what codegen emits.
            "return_name": getattr(self, "return_name", None),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"SDFG({self.name!r}, {len(self.arrays)} arrays, "
            f"{sum(1 for _ in self.all_states())} states)"
        )
