"""Known-bad input for R10 (resident-state-immutability).

Post-construction stores into GraphCsr/RoleKernel state, in every shape
the rule recognizes.  Never import this module.
"""

from repro.core.arraystate import GraphCsr, csr_of
from repro.core.kernels import cached_kernel


class GraphCsr:  # shadows the real class: methods below are "its" methods
    def __init__(self, degrees):
        self.degrees = degrees  # ok: construction

    def decay(self, v):
        self.degrees = self.degrees - 1  # R10: store outside construction


def mutate_memoized_csr(graph):
    csr = csr_of(graph)
    csr.degrees[0] = 1  # R10: in-place store into a frozen array
    csr.indptr = None  # R10: attribute rebinding
    alias = csr.src
    alias[3] = 7  # R10: store through an alias of a resident array
    csr.indices.flags.writeable = True  # R10: thawing
    return csr


def mutate_kernel(template):
    kernel = cached_kernel(template)
    kernel.tables = {}  # R10: kernels are shared across processes
    return kernel


def ok_construction_scope(degrees):
    view = GraphCsr.__new__(GraphCsr)
    view.degrees = degrees  # ok: local under construction
    view.degrees.setflags(write=False)
    return view


def ok_refreeze(graph):
    csr = csr_of(graph)
    csr.indices.flags.writeable = False  # ok: freezing is the boundary
    return csr
