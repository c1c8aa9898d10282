"""Shared exception types, and the size limits that raise ResourceBudget.

InputError        malformed instance data (CLI exit code 2)
ResourceBudget    a face/node/size budget was exceeded (CLI exit code 3)
ContractError     a construction's output broke the guarantee it states: a
                  compose level or the Kneser reduction failed its own
                  re-check (CLI exit code 1)
"""

# The most vertices and edges an instance may have, checked (check_size)
# before a graph or point list that large is built: Graph(n) builds one
# adjacency set per vertex (~0.2 KB each) and about 390 bytes per edge.
INSTANCE_VERTEX_LIMIT = 100_000
INSTANCE_EDGE_LIMIT = 1_000_000

# The most bytes one array-building layer may allocate: the solver's tables,
# the constraint map's face tensors, and homology's faces and dense Morse
# blocks are each sized by arithmetic, at their measured bytes per unit,
# and refused above this before they are built.
MEMORY_LIMIT = 500_000_000


class InputError(ValueError):
    pass


class ResourceBudget(RuntimeError):
    pass


class ContractError(AssertionError):
    pass


class Budget:
    """`limit` units, `left` unspent; spending more raises ResourceBudget."""

    def __init__(self, limit, what):
        self.left = limit
        self.what = what

    def spend(self, n=1):
        if n > self.left:
            raise ResourceBudget(self.what)
        self.left -= n


def check_size(what, value, limit=INSTANCE_VERTEX_LIMIT):
    """The size `value`, or ResourceBudget when it is over `limit`; called
    before anything of that size is built."""
    if value > limit:
        raise ResourceBudget("%s: %d, more than the limit of %d"
                             % (what, value, limit))
    return value
