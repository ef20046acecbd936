"""Program-order use analysis: who reads and writes each data container.

Map fusion, value numbering, dead code elimination, liveness and memory
planning all need the same question answered: *for a given container, where
are its writers and readers, and in what program order?*  This module is the
one linearisation of the control-flow tree that answers it.  One walk
(:meth:`ControlFlowRegion.walk`) gives every compute node a global position —
states, loop bodies and conditional branches in syntactic order — and records,
per container, every read and write of it at that position:

* within one node, input reads come *before* the write (the right-hand side is
  evaluated first), and an accumulating write (``+=``) is followed by a read
  of the previous contents flagged ``accumulate_read``;
* each site carries its location in the tree (region, element index, state,
  node index), the enclosing loops and conditionals (``ctrl_path``) and the
  index of the enclosing top-level element (``top_index``).

Reads that do not go through a memlet — container names referenced by branch
conditions (the frontend's ``__cond`` scalars) or loop bounds — are *opaque*:
they have no node to rewrite, so passes must leave such containers alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.ir.control_flow import (
    ConditionalRegion,
    ControlFlowRegion,
    LoopRegion,
)
from repro.ir.memlet import Memlet
from repro.ir.nodes import ComputeNode, MapCompute
from repro.ir.state import State
from repro.ir.subsets import Index, Range
from repro.symbolic import Const, Sym, as_expr
from repro.symbolic.simplify import simplify

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.sdfg import SDFG


@dataclass  # not frozen: cheaper to build, and GVN/fusion re-collect every sweep
class UseSite:
    """One read or write of a container by a compute node.

    ``pos`` is the node's global position; ``region``/``element_index``/
    ``node_index`` locate it in the tree: ``region.elements[element_index]``
    is ``state`` and ``state.nodes[node_index]`` is ``node``.  ``ctrl_path``
    is the tuple of enclosing :class:`LoopRegion` / :class:`ConditionalRegion`
    objects, outermost first; ``top_index`` is the index of the enclosing
    top-level element of ``sdfg.root``.  For input reads ``conn`` is the
    connector the memlet enters through; it is ``None`` for writes and for
    the ``accumulate_read`` of a ``+=`` write's previous contents.
    """

    pos: int
    region: ControlFlowRegion
    element_index: int
    state: State
    node_index: int
    node: ComputeNode
    ctrl_path: tuple
    top_index: int
    kind: str  # "read" | "write"
    memlet: Memlet
    conn: Optional[str] = None
    accumulate_read: bool = False

    def position(self) -> tuple[int, int]:
        """(element index, node index) — orders sites within one region."""
        return (self.element_index, self.node_index)


@dataclass
class UseSites:
    """All uses of one container.

    Attributes
    ----------
    events:
        Every read and write site, in program order.
    writes:
        The write sites of ``events``: nodes whose output memlet targets the
        container (accumulating writes included — they are reads *and*
        writes).
    reads:
        The read sites of ``events``: nodes reading the container through an
        input memlet, plus the ``accumulate_read`` of every accumulating
        write.
    opaque_reads:
        Number of references with no rewritable memlet (branch conditions,
        loop bounds).  A non-zero count means the container cannot be renamed
        or removed.
    """

    events: list[UseSite] = field(default_factory=list)
    writes: list[UseSite] = field(default_factory=list)
    reads: list[UseSite] = field(default_factory=list)
    opaque_reads: int = 0

    def add(self, site: UseSite) -> None:
        """Append ``site`` (the next use in program order)."""
        self.events.append(site)
        (self.writes if site.kind == "write" else self.reads).append(site)

    def sole_reader(self) -> Optional[ComputeNode]:
        """The one node performing every read of this container, or ``None``
        when there are no reads or several distinct readers.  Single-consumer
        checks (map fusion) start here."""
        if len({id(site.node) for site in self.reads}) != 1:
            return None
        return self.reads[0].node


class ProgramUses(dict):
    """Container name -> :class:`UseSites`, plus the program order itself.

    ``nodes`` holds every compute node's write site in program order
    (``nodes[pos].pos == pos``).
    """

    def __init__(self, names) -> None:
        super().__init__((name, UseSites()) for name in names)
        self.nodes: list[UseSite] = []


def is_identity_elementwise_write(node: ComputeNode, desc) -> bool:
    """True if ``node`` is a :class:`MapCompute` that overwrites every element
    of ``desc`` exactly once, with map parameter ``k`` writing element ``k``
    (the normal form :meth:`StateBuilder.emit_elementwise_write` produces for
    full-container targets).  This is the producer shape map fusion, value
    numbering, liveness and memory planning can reason about: the
    container's contents are a pure function of the node's inputs."""
    if not isinstance(node, MapCompute) or node.output.accumulate:
        return False
    subset = node.output.subset
    dims = tuple(subset) if subset is not None else ()
    if len(dims) != len(node.params) or len(dims) != len(desc.shape):
        return False
    for dim, param, rng, size in zip(dims, node.params, node.ranges, desc.shape):
        if not isinstance(dim, Index) or dim.value != Sym(param):
            return False
        if not isinstance(rng, Range):
            return False
        if simplify(rng.start) != Const(0) or simplify(rng.step) != Const(1):
            return False
        if simplify(rng.stop) != simplify(as_expr(size)):
            return False
    return True


def _control_reads(element, array_names: set[str]) -> list[str]:
    """Containers named by ``element``'s branch conditions or loop bounds,
    once per reference."""
    if isinstance(element, ConditionalRegion):
        exprs = [condition for condition, _ in element.branches if condition is not None]
    elif isinstance(element, LoopRegion):
        exprs = [element.start, element.stop, element.step]
    else:
        return []
    return [name for expr in exprs for name in expr.free_symbols() & array_names]


def opaque_containers(sdfg: "SDFG") -> set[str]:
    """Containers named by a branch condition or a loop bound — those with
    non-zero :attr:`UseSites.opaque_reads`, without the rest of the
    analysis."""
    array_names = set(sdfg.arrays)
    return {
        name for element in sdfg.all_elements()
        for name in _control_reads(element, array_names)
    }


def collect_uses(sdfg: "SDFG") -> ProgramUses:
    """Linearise ``sdfg`` and map every container name to its
    :class:`UseSites`.

    Containers that are never referenced still get an (empty) entry, so
    callers can use ``uses[name]`` unconditionally.
    """
    uses = ProgramUses(sdfg.arrays)
    array_names = set(sdfg.arrays)

    def sites_of(name: str) -> UseSites:
        sites = uses.get(name)
        if sites is None:  # tolerate memlets naming containers not in ``arrays``
            sites = uses[name] = UseSites()
        return sites

    top = 0
    for element, region, element_index, path in sdfg.root.walk():
        if not path:
            top = element_index
        if not isinstance(element, State):
            for name in _control_reads(element, array_names):
                uses[name].opaque_reads += 1
            continue
        for node_index, node in enumerate(element.nodes):
            where = (len(uses.nodes), region, element_index, element, node_index,
                     node, path, top)
            for conn, memlet in node.inputs.items():
                sites_of(memlet.data).add(UseSite(*where, "read", memlet, conn))
            out = node.output
            write = UseSite(*where, "write", out)
            uses.nodes.append(write)
            sites = sites_of(out.data)
            sites.add(write)
            if out.accumulate:
                sites.add(UseSite(*where, "read", out, accumulate_read=True))
    return uses
