"""Reference checks the tests use and the pipeline does not."""

import numpy as np


def domain_contains(domain, v) -> bool:
    """Whether the ValueDomain permits the value v."""
    if domain.kind == "range":
        return domain.lo <= v <= domain.hi
    return v in domain.values


def is_acyclic(graph) -> bool:
    """Whether every edge of the CausalGraph runs forward in its topo_order."""
    pos = {node: p for p, node in enumerate(graph.topo_order)}
    js, is_ = np.nonzero(graph.weights)
    return all(pos[i] < pos[j] for i, j in zip(is_, js))
