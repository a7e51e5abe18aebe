"""The dependency graph of a set of TGDs (Definition 3, Figure 2).

The dependency graph is a labelled directed multigraph whose nodes are the
*positions* of the schema and which has an edge ``(πb, πh)`` labelled ``σ``
whenever the same variable occurs at position ``πb`` in ``body(σ)`` and at
position ``πh`` in ``head(σ)``.  A path therefore describes a *possible* way
of propagating a term between positions during the chase; combined with the
equality-type conditions it becomes a *guaranteed* propagation, which is what
atom coverage (Definition 5) exploits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..logic.atoms import Position
from ..logic.terms import is_variable
from ..dependencies.tgd import TGD, schema_positions


@dataclass(frozen=True)
class DependencyEdge:
    """A labelled edge ``source --rule--> target`` of the dependency graph."""

    source: Position
    target: Position
    rule: TGD

    def __repr__(self) -> str:
        label = self.rule.label or "σ"
        return f"{self.source!r} -[{label}]-> {self.target!r}"


class DependencyGraph:
    """Labelled directed multigraph over the positions of a schema."""

    def __init__(self, rules: Sequence[TGD]) -> None:
        self._rules = tuple(rules)
        self._edges: list[DependencyEdge] = []
        self._by_source: dict[Position, list[DependencyEdge]] = defaultdict(list)
        self._by_rule: dict[TGD, list[DependencyEdge]] = defaultdict(list)
        self._nodes: set[Position] = set(schema_positions(rules))
        self._build()

    def _build(self) -> None:
        for rule in self._rules:
            body_positions: dict = defaultdict(set)
            for atom in rule.body:
                for index, term in enumerate(atom.terms, start=1):
                    if is_variable(term):
                        body_positions[term].add(Position(atom.predicate, index))
            for head_atom in rule.head:
                for index, term in enumerate(head_atom.terms, start=1):
                    if not is_variable(term) or term not in body_positions:
                        continue
                    target = Position(head_atom.predicate, index)
                    for source in body_positions[term]:
                        edge = DependencyEdge(source, target, rule)
                        self._edges.append(edge)
                        self._by_source[source].append(edge)
                        self._by_rule[rule].append(edge)
                        self._nodes.add(source)
                        self._nodes.add(target)

    # -- accessors -------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[Position]:
        """All positions known to the graph."""
        return frozenset(self._nodes)

    @property
    def edges(self) -> tuple[DependencyEdge, ...]:
        """All labelled edges."""
        return tuple(self._edges)

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The TGDs the graph was built from."""
        return self._rules

    def edges_from(self, source: Position) -> tuple[DependencyEdge, ...]:
        """Edges leaving *source*."""
        return tuple(self._by_source.get(source, ()))

    def edges_labelled(self, rule: TGD) -> tuple[DependencyEdge, ...]:
        """Edges labelled by *rule*."""
        return tuple(self._by_rule.get(rule, ()))

    def successors(
        self, sources: Iterable[Position], rule: TGD
    ) -> frozenset[Position]:
        """Positions reachable from *sources* via a single edge labelled *rule*."""
        sources = set(sources)
        return frozenset(
            edge.target
            for source in sources
            for edge in self._by_source.get(source, ())
            if edge.rule == rule
        )

    def has_edge(self, source: Position, target: Position, rule: TGD) -> bool:
        """``True`` iff the labelled edge exists."""
        return any(
            edge.target == target and edge.rule == rule
            for edge in self._by_source.get(source, ())
        )

    def reachable(self, start: Position) -> frozenset[Position]:
        """*start* and every position some path from it leads to.

        A term the chase places at *start* can only ever be copied to
        these positions.
        """
        seen = {start}
        pending = [start]
        while pending:
            for edge in self._by_source.get(pending.pop(), ()):
                if edge.target not in seen:
                    seen.add(edge.target)
                    pending.append(edge.target)
        return frozenset(seen)

    def walk(
        self, start: Position, labels: Sequence[TGD]
    ) -> Iterator[tuple[Position, ...]]:
        """Enumerate the paths starting at *start* whose edge labels are *labels*."""
        def extend(path: tuple[Position, ...], remaining: Sequence[TGD]):
            if not remaining:
                yield path
                return
            rule, rest = remaining[0], remaining[1:]
            for edge in self._by_source.get(path[-1], ()):  # noqa: B905
                if edge.rule == rule:
                    yield from extend(path + (edge.target,), rest)

        yield from extend((start,), labels)

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT format (Figure 2 of the paper)."""
        lines = ["digraph dependency_graph {"]
        for node in sorted(self._nodes, key=repr):
            lines.append(f'  "{node!r}";')
        for edge in self._edges:
            label = edge.rule.label or "σ"
            lines.append(f'  "{edge.source!r}" -> "{edge.target!r}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DependencyGraph({len(self._nodes)} positions, {len(self._edges)} edges, "
            f"{len(self._rules)} rules)"
        )
