"""Every connected network of 2–6 processes: the columnar kernels
against the scalar guards.

networkx bundles its graph atlas (``graph_atlas_g()``, every graph of
up to seven nodes; nothing is downloaded).  Its 142 connected graphs of
2–6 nodes run with their own port numbering and with one random
relabeling, which shuffles the process order and every port list, so
each process's ports land elsewhere in the store's CSR arrays and a
null pointer wraps onto another process's port.  For COLORING, MIS and
MATCHING each network is checked at several arbitrary configurations,
at the silent configuration a run reaches, and at every one-register
corruption of that silent configuration (each non-constant register of
each process set to one other value):

* kernel codes, ports and bits equal the scalar cascade's, process by
  process, classified over the whole network and over a reordered
  index array;
* ``legitimate_cols`` equals ``Protocol.is_legitimate``;
* ``silent_cols``, where a kernel has one (COLORING), equals
  :func:`repro.core.silence.is_silent`;
* the compiled guard cascade (:mod:`repro.core.guards`) gives each
  process the rule, ports, bits and planned writes of the scalar
  cascade through a :class:`~repro.core.context.StepContext` (draws from
  equal generators), its probe says whether a rule fires, and its walk
  gives each process's quiescence witness, so the compiled silence
  verdict equals :func:`repro.core.silence.is_silent`.
"""

import random

import networkx as nx
import pytest

from repro.api import protocol_registry
from repro.core import Simulator
from repro.core.actions import first_enabled
from repro.core.batchengine import BATCH_KERNELS
from repro.core.columns import ColumnStore
from repro.core.context import StepContext
from repro.core.guards import bind_cascade
from repro.core.silence import (is_silent, process_quiescence_witness,
                                silence_witness)
from repro.graphs.topology import Network

ATLAS = [graph for graph in nx.graph_atlas_g()
         if 2 <= graph.number_of_nodes() <= 6 and nx.is_connected(graph)]

#: arbitrary configurations drawn per network
ARBITRARY = 4


def test_atlas_slice_is_every_connected_graph_of_2_to_6_nodes():
    # 1 + 2 + 6 + 21 + 112 connected graphs of 2, 3, 4, 5, 6 nodes
    assert len(ATLAS) == 142


def numberings(index, graph):
    """The atlas graph with its own port numbering, and one random
    relabeling of it (new labels, process order and port order)."""
    rng = random.Random(index)
    labels = list(graph.nodes)
    relabel = dict(zip(labels, rng.sample(labels, len(labels))))
    edges = [(relabel[u], relabel[v]) if rng.random() < 0.5
             else (relabel[v], relabel[u]) for u, v in graph.edges]
    rng.shuffle(edges)
    order = rng.sample(list(relabel.values()), len(labels))
    return Network(graph), Network.from_edges(order, edges)


def check(proto, net, specs_of, config, label):
    store = ColumnStore.try_build(net, config, specs_of)
    kernel = BATCH_KERNELS[type(proto)](proto, store)
    codes, ports, bits, _aux = kernel.classify(store.all_idx)
    names = kernel.rule_names
    actions = proto.actions()
    for p, code, port, b in zip(store.pids, codes.tolist(), ports.tolist(),
                                bits.tolist()):
        ctx = StepContext(p, net, config, specs_of)
        action = first_enabled(actions, ctx)
        got = (names[code] if code >= 0 else None, {port} - {0}, b)
        expect = (action.name if action is not None else None,
                  set(ctx.ports_read), ctx.bits_read)
        assert got == expect, f"{label}: process {p!r}"
    # The same classification through a reordered index array (the
    # per-step path gathers ``start[idx]`` instead of slicing it).
    rev = store.all_idx[::-1].copy()
    r_codes, r_ports, r_bits, _aux = kernel.classify(rev)
    assert r_codes.tolist() == codes.tolist()[::-1], label
    assert r_ports.tolist() == ports.tolist()[::-1], label
    assert r_bits.tolist() == bits.tolist()[::-1], label
    assert kernel.legitimate_cols() is proto.is_legitimate(net, config), \
        label
    silent_cols = getattr(kernel, "silent_cols", None)
    if silent_cols is not None:
        assert silent_cols() is is_silent(proto, net, config,
                                          specs_of=specs_of), label
    check_compiled(proto, net, specs_of, config, label)


def check_compiled(proto, net, specs_of, config, label):
    """The compiled cascade against the StepContext cascade, process by
    process: rule, ports, bits, planned writes, probe and walk."""
    cascade = bind_cascade(proto, net, config, specs_of)
    assert cascade is not None, label
    names = cascade.names
    actions = proto.actions()
    for k, p in enumerate(net.processes):
        (got,), pend = cascade.step([p], random.Random(k))
        ctx = StepContext(p, net, config, specs_of, rng=random.Random(k))
        action = first_enabled(actions, ctx)
        assert cascade.probe(p) is (action is not None), f"{label}: {p!r}"
        if action is not None:
            action.effect(ctx)
        comm = {s.name for s in specs_of[p] if s.kind == "comm"}
        expect = (p, set(ctx.ports_read), ctx.bits_read,
                  action.name if action is not None else None,
                  {name: (value, p if name in comm else None)
                   for name, value in ctx.writes.items()})
        writes = {names[slot]: (value, owner)
                  for row, slot, value, owner in pend
                  if row is config.row_of(p)}
        assert len(writes) == len(pend), f"{label}: {p!r}"
        assert (got[0], set(got[1]), got[2], got[3], writes) == expect, \
            f"{label}: process {p!r}"
        assert cascade.walk(p) == process_quiescence_witness(
            proto, net, config, p, specs_of), f"{label}: walk {p!r}"
    assert silence_witness(proto, net, config, walk=cascade.walk) \
        == silence_witness(proto, net, config, specs_of=specs_of), label


def corruptions(config, specs_of, rng):
    """Each non-constant register of each process set to one other
    value of its domain, one at a time."""
    for p, specs in specs_of.items():
        for spec in specs:
            if spec.kind == "const":
                continue
            value = config.get(p, spec.name)
            others = [v for v in spec.domain if v != value]
            if others:
                bad = config.copy()
                bad.set(p, spec.name, rng.choice(others))
                yield f"{spec.name}.{p!r}", bad


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
def test_kernels_match_the_scalar_guards(protocol, n):
    cases = 0
    for index, graph in enumerate(ATLAS):
        if graph.number_of_nodes() != n:
            continue
        for numbering, net in zip(("own", "relabeled"),
                                  numberings(index, graph)):
            proto = protocol_registry.build(protocol, net)
            specs_of = proto.specs_of(net)
            rng = random.Random(f"{protocol}/{index}/{numbering}")
            label = f"{protocol} atlas[{index}] {numbering}"
            for k in range(ARBITRARY):
                config = proto.arbitrary_configuration(net, rng, specs_of)
                check(proto, net, specs_of, config, f"{label} arbitrary {k}")
                cases += 1
            sim = Simulator(proto, net, config=config, seed=index)
            assert sim.run_until_silent(max_rounds=10_000).silent, label
            silent = sim.config.copy()
            check(proto, net, specs_of, silent, f"{label} silent")
            cases += 1
            for where, bad in corruptions(silent, specs_of, rng):
                check(proto, net, specs_of, bad, f"{label} {where}")
                cases += 1
    assert cases
