"""The kinds of quadruple ``sampling.random_quadruple`` draws.

A module of its own, importing nothing, so that the CLI can offer them as
``--kind`` choices without loading the samplers.
"""

KINDS = ("generic", "c_plane", "r_plane", "subspace2")
