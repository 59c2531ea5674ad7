"""Whole-program structures: import graph, call graph, symbol resolution.

Built once per run from the per-module summaries, these are what a
:class:`~repro.staticcheck.registry.ProjectRule` sees.  Resolution is
purely static and name-based: a dotted name maps to the project module
that is its longest prefix, and re-export facades (``from .persistence
import save_model`` in a package ``__init__``) are chased through the
import tables so ``repro.mlcore.save_model`` and
``repro.mlcore.persistence.save_model`` resolve to the same signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.staticcheck.project.summary import ModuleSummary, SignatureInfo

__all__ = ["CallGraph", "ImportGraph", "ProjectContext", "ResolvedSymbol"]

_MAX_ALIAS_HOPS = 8


@dataclass(frozen=True)
class ResolvedSymbol:
    """Outcome of resolving a dotted name to a project definition."""

    summary: ModuleSummary
    qualname: str
    signature: SignatureInfo | None


class ImportGraph:
    """Module -> imported project modules, with edge lines and runtime flags."""

    def __init__(self, summaries: dict[str, ModuleSummary]):
        self._summaries = summaries
        #: module -> {target module: (first line, runtime)}
        self.edges: dict[str, dict[str, tuple[int, bool]]] = {}
        for name in sorted(summaries):
            out: dict[str, tuple[int, bool]] = {}
            for target, line, runtime in summaries[name].import_edges:
                module = self._owning_module(target)
                if module is None or module == name:
                    continue
                prior = out.get(module)
                if prior is None:
                    out[module] = (line, runtime)
                else:
                    # keep the earliest line; runtime wins over lazy
                    out[module] = (min(prior[0], line), prior[1] or runtime)
            self.edges[name] = out

    def _owning_module(self, dotted: str) -> str | None:
        name = dotted
        while name:
            if name in self._summaries:
                return name
            name, _, _ = name.rpartition(".")
        return None

    def runtime_successors(self, module: str) -> list[str]:
        return sorted(t for t, (_, runtime) in self.edges.get(module, {}).items() if runtime)

    def edge_line(self, module: str, target: str) -> int:
        return self.edges.get(module, {}).get(target, (1, True))[0]

    def runtime_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1, deterministically.

        Iterative Tarjan over sorted nodes and sorted successors, so the
        report is stable across runs and Python hash seeds.
        """
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        components: list[list[str]] = []

        for root in sorted(self.edges):
            if root in index:
                continue
            work: list[tuple[str, Iterator[str]]] = [(root, iter(self.runtime_successors(root)))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(self.runtime_successors(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))
        return sorted(components)

    def cycle_path(self, component: list[str]) -> list[str]:
        """A concrete ``a -> b -> ... -> a`` walk inside one component."""
        start = component[0]
        members = set(component)
        path = [start]
        seen = {start}
        node = start
        while True:
            next_nodes = [s for s in self.runtime_successors(node) if s in members]
            target = next(
                (s for s in next_nodes if s == start),
                next((s for s in next_nodes if s not in seen), None),
            )
            if target is None or target == start:
                path.append(start)
                return path
            path.append(target)
            seen.add(target)
            node = target


class CallGraph:
    """Approximate caller-module -> resolved callee edges.

    Only statically resolvable dotted callees are included (no receiver
    type inference), which is exactly the set the contract-drift and
    taint rules can reason about.
    """

    def __init__(self, project: "ProjectContext"):
        #: (caller module, call dict, ResolvedSymbol) triples
        self.edges: list[tuple[str, dict, ResolvedSymbol]] = []
        for name in sorted(project.summaries):
            for call in project.summaries[name].calls:
                resolved = project.resolve(call["callee"])
                if resolved is not None:
                    self.edges.append((name, call, resolved))

    def calls_into(self, module: str) -> list[tuple[str, dict, ResolvedSymbol]]:
        return [e for e in self.edges if e[2].summary.module == module]


@dataclass
class ProjectContext:
    """Everything a project rule may inspect: all modules at once."""

    summaries: dict[str, ModuleSummary]
    #: usage facts harvested from reference-only files (tests, benchmarks):
    #: {"uses": [dotted names], "stars": [modules]} per file.
    reference_usage: list[dict] = field(default_factory=list)
    import_graph: ImportGraph = field(init=False)
    call_graph: CallGraph = field(init=False)

    def __post_init__(self) -> None:
        self.import_graph = ImportGraph(self.summaries)
        self.call_graph = CallGraph(self)

    # -- resolution --------------------------------------------------------

    def owning_module(self, dotted: str) -> str | None:
        name = dotted
        while name:
            if name in self.summaries:
                return name
            name, _, _ = name.rpartition(".")
        return None

    def resolve(self, dotted: str) -> ResolvedSymbol | None:
        """Resolve a dotted name to the summary that defines it.

        Chases re-export aliases through package ``__init__`` import
        tables (bounded hops, cycle-safe), so facade names resolve to the
        real definition site.
        """
        seen: set[str] = set()
        for _ in range(_MAX_ALIAS_HOPS):
            if dotted in seen:
                return None
            seen.add(dotted)
            module = self.owning_module(dotted)
            if module is None:
                return None
            summary = self.summaries[module]
            qualname = dotted[len(module) + 1 :] if len(dotted) > len(module) else ""
            if not qualname:
                return ResolvedSymbol(summary=summary, qualname="", signature=None)
            if qualname in summary.functions:
                return ResolvedSymbol(
                    summary=summary, qualname=qualname, signature=summary.functions[qualname]
                )
            head, _, tail = qualname.partition(".")
            if head in summary.defined_names:
                # Defined but not a callable we track (a constant, etc.).
                return ResolvedSymbol(summary=summary, qualname=qualname, signature=None)
            origin = summary.imports.get(head)
            if origin is None:
                return None
            dotted = f"{origin}.{tail}" if tail else origin
        return None
